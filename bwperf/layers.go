package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"blockwatch"
	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/lower"
	"blockwatch/internal/monitor"
	"blockwatch/internal/queue"
	"blockwatch/internal/remote"
	"blockwatch/internal/trace"
	"blockwatch/internal/wire"
)

const (
	layerReps  = 3       // repetitions of each layer measurement
	queueEvent = 1 << 20 // events moved by one SPSC ping-pong
	queueBatch = monitor.DefaultSenderBatch
)

// timedSink wraps the sink interp.Run drives, timing its Start and Close
// as child spans of the run. Stats is forwarded so the run still
// harvests the wrapped sink's counters.
type timedSink struct {
	monitor.Sink
	tr    *tracer
	layer string
	close time.Duration
}

func (s *timedSink) Start() { s.tr.timed(s.layer+".Start", s.Sink.Start) }
func (s *timedSink) Close() { s.close = s.tr.timed(s.layer+".Close", s.Sink.Close) }

func (s *timedSink) Stats() monitor.Stats {
	if sp, ok := s.Sink.(interface{ Stats() monitor.Stats }); ok {
		return sp.Stats()
	}
	return monitor.Stats{}
}

// frame is one decoded trace frame, copied out of the reader.
type frame struct {
	typ    byte
	slot   int
	thread int32
	events []monitor.Event
}

// cell is everything the traced run measures for one kernel at one
// program seed; time fields are medians over layerReps.
type cell struct {
	kernel                      string
	off, drain, active          time.Duration // interp.Run per monitor mode
	opLocal, opRemote           time.Duration // facade ops
	branches, events, instances uint64
	dropped, quarantined, wdog  uint64
	encode, decode, replay      time.Duration
	ingest, drainOnly           time.Duration // monitor replay, checking on / off
	wireBytes                   int
}

// layerModel holds one kernel's IR and check plans, built from the
// kernel's source by calling lower and core directly.
type layerModel struct {
	name  string
	mod   *ir.Module
	plans map[int]*core.CheckPlan
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// tracedRun is the --trace 1 run: it times each layer's public entry
// points from outside, reconciles them with facade op times, then runs
// the workload's own loop untraced and traced.
func tracedRun(cfg config, w io.Writer) (*result, error) {
	tr := newTracer()
	chk := &opCounter{}
	rep := newReport(w)
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	fmt.Fprintf(w, "traced run: workload %s, seed %d, %d s, %d threads\n", cfg.workload, cfg.seed, cfg.seconds, threads)

	models, err := compileLayers(tr, rep)
	if err != nil {
		return nil, err
	}
	lb, err := setUp(config{workload: "kernels-remote", seed: cfg.seed, out: cfg.out})
	if err != nil {
		return nil, err
	}
	defer lb.close()

	var cells []*cell
	var closes, dials, rcloses []float64
	reconnects := 0
	for k, m := range models {
		for si, seed := range lb.seeds {
			c := &cell{kernel: m.name}
			cells = append(cells, c)
			tr.setOp(len(cells))
			if err := measureCell(tr, lb, k, si, seed, m, c, chk, &closes, &dials, &rcloses, &reconnects); err != nil {
				return nil, err
			}
			if err := offlineDrivers(tr, m, seed, c, chk); err != nil {
				return nil, err
			}
		}
	}
	queueNs, err := pingPong(tr)
	if err != nil {
		return nil, err
	}
	addCellMetrics(rep, w, cells, closes, dials, rcloses, reconnects, queueNs)

	if err := campaignLayer(tr, rep, lb, chk); err != nil {
		return nil, err
	}

	// The workload's own ops: first untraced, then traced, splitting the
	// remaining time.
	wb := lb
	if cfg.workload != "kernels-remote" {
		if wb, err = setUp(cfg); err != nil {
			return nil, err
		}
		defer wb.close()
	}
	half := time.Until(deadline) / 2
	plain := wb.loop(half, nil)
	traced := wb.loop(half, tr)
	for _, lp := range []*loopStats{plain, traced} {
		chk.attempted += lp.ops.attempted
		chk.failed += lp.ops.failed
		chk.reasons = append(chk.reasons, lp.ops.reasons...)
	}
	n := float64(plain.ops.attempted)
	rep.add("runtime.alloc_kb_per_op", float64(plain.allocBytes)/1024/n, "KiB",
		fmt.Sprintf("(%d B over %d %s ops)", plain.allocBytes, plain.ops.attempted, cfg.workload))
	rep.addRatio("runtime.gc_per_op", ratio{float64(plain.gcs), n}, "(GC cycles / ops)")
	p50u, _ := percentile(plain.latMS, 0.5)
	p50t, _ := percentile(traced.latMS, 0.5)
	rep.add("bench.tracing_overhead_frac", p50t/p50u-1, "ratio",
		fmt.Sprintf("(traced op_ms_p50 %.4g ms, n=%d / untraced %.4g ms, n=%d, minus 1)",
			p50t, len(traced.latMS), p50u, len(plain.latMS)))

	tr.printSelf(w)
	spans := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.dump(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintln(w, "spans written to", spans)
	for _, r := range chk.reasons {
		fmt.Fprintln(w, "  failed check:", r)
	}
	return &result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   rep.metrics,
	}, nil
}

// compileLayers lowers and analyzes the seven kernels layerReps times
// and reports the median total time of each layer.
func compileLayers(tr *tracer, rep *report) ([]layerModel, error) {
	var models []layerModel
	var lowerMS, coreMS []float64
	for r := 0; r < layerReps; r++ {
		models = models[:0]
		var tl, tc time.Duration
		for _, name := range blockwatch.Benchmarks() {
			src, err := blockwatch.BenchmarkSource(name)
			if err != nil {
				return nil, err
			}
			var mod *ir.Module
			tl += tr.timed("lower.Compile", func() {
				if mod, err = lower.Compile(src, name); err == nil {
					err = lower.CheckSPMD(mod)
				}
			})
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", name, err)
			}
			var a *core.Analysis
			tc += tr.timed("core.Analyze", func() { a, err = core.Analyze(mod, core.Options{}) })
			if err != nil {
				return nil, fmt.Errorf("analyze %s: %w", name, err)
			}
			models = append(models, layerModel{name: name, mod: mod, plans: a.Plans})
		}
		lowerMS = append(lowerMS, ms(tl))
		coreMS = append(coreMS, ms(tc))
	}
	rep.add("lower.compile_ms", median(lowerMS), "ms", fmt.Sprintf("(seven kernels, median of %d)", layerReps))
	rep.add("core.analyze_ms", median(coreMS), "ms", fmt.Sprintf("(seven kernels, median of %d)", layerReps))
	return models, nil
}

// measureCell times one kernel at one seed through interp with the
// monitor off, drain-only, active in process and active remote, and
// through the facade in process and remote.
func measureCell(tr *tracer, lb *bench, k, si int, seed uint64, m layerModel, c *cell, chk *opCounter,
	closes, dials, rcloses *[]float64, reconnects *int) error {
	ref := &lb.refs[k][si]
	var off, drain, active, opL, opR []float64
	run := func(name string, opts interp.Options) (*interp.Result, time.Duration, error) {
		opts.Threads, opts.Seed = threads, seed
		var res *interp.Result
		var err error
		d := tr.timed(name, func() { res, err = interp.Run(m.mod, opts) })
		return res, d, err
	}
	for r := 0; r < layerReps; r++ {
		res, d, err := run("interp.Run/off", interp.Options{})
		if err != nil {
			return err
		}
		off = append(off, ms(d))
		c.branches = 0
		for _, n := range res.BranchCounts {
			c.branches += n
		}
		chk.record(sameOutput(ref, res.Output))

		_, d, err = run("interp.Run/drain", interp.Options{Mode: interp.MonitorDrainOnly, Plans: m.plans})
		if err != nil {
			return err
		}
		drain = append(drain, ms(d))

		mon, err := monitor.New(monitor.Config{NumThreads: threads, Plans: m.plans})
		if err != nil {
			return err
		}
		sink := &timedSink{Sink: mon, tr: tr, layer: "monitor"}
		res, d, err = run("interp.Run/active", interp.Options{Mode: interp.MonitorActive, Plans: m.plans, Sink: sink})
		if err != nil {
			return err
		}
		active = append(active, ms(d))
		*closes = append(*closes, ms(sink.close))
		st := res.MonitorStats
		c.events, c.instances = st.Events, st.Instances
		c.dropped += st.Dropped
		c.quarantined += st.Quarantined
		c.wdog += st.Watchdog
		chk.record(cleanInterp(ref, res))

		var client *remote.Client
		dd := tr.timed("remote.Dial", func() {
			client, err = remote.Dial(lb.addr, remote.ClientConfig{Program: m.name, NumThreads: threads, Plans: m.plans})
		})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		*dials = append(*dials, ms(dd))
		rsink := &timedSink{Sink: client, tr: tr, layer: "remote"}
		res, _, err = run("interp.Run/remote", interp.Options{Mode: interp.MonitorActive, Plans: m.plans, Sink: rsink})
		if err != nil {
			return err
		}
		*rcloses = append(*rcloses, ms(rsink.close))
		*reconnects += client.Reconnects()
		chk.record(cleanInterp(ref, res))

		p := lb.progs[k]
		opts := blockwatch.RunOptions{Threads: threads, Seed: seed, Protect: true, Analysis: lb.reports[k]}
		var got *blockwatch.RunResult
		d = tr.timed("blockwatch.Run/local", func() { got, err = p.Run(opts) })
		if err != nil {
			return err
		}
		opL = append(opL, ms(d))
		chk.record(checkClean(ref, got))
		opts.Remote = lb.addr
		d = tr.timed("blockwatch.Run/remote", func() { got, err = p.Run(opts) })
		if err != nil {
			return err
		}
		opR = append(opR, ms(d))
		chk.record(checkRemote(ref, got))
	}
	c.off, c.drain, c.active = msDur(median(off)), msDur(median(drain)), msDur(median(active))
	c.opLocal, c.opRemote = msDur(median(opL)), msDur(median(opR))
	return nil
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func sameOutput(ref *reference, out []uint64) error {
	if !slices.Equal(out, ref.output) {
		return errors.New("interp output differs from the facade reference")
	}
	return nil
}

// cleanInterp is checkClean for a direct interp.Run.
func cleanInterp(ref *reference, res *interp.Result) error {
	if err := sameOutput(ref, res.Output); err != nil {
		return err
	}
	if !res.Clean() || res.Detected || res.MonitorHealth != monitor.Healthy {
		return fmt.Errorf("unclean monitored run (detected=%v health=%v)", res.Detected, res.MonitorHealth)
	}
	return nil
}

// offlineDrivers records the kernel's event stream once, then times the
// wire encoder and decoder, the monitor fed from memory with checking on
// and off, and trace.Replay, on that stream with no interpreter involved.
func offlineDrivers(tr *tracer, m layerModel, seed uint64, c *cell, chk *opCounter) error {
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.RecorderConfig{Program: m.name, NumThreads: threads, Plans: m.plans})
	if err != nil {
		return err
	}
	live, err := interp.Run(m.mod, interp.Options{
		Threads: threads, Seed: seed, Mode: interp.MonitorActive, Plans: m.plans, Sink: rec,
	})
	if err != nil {
		return fmt.Errorf("recording %s: %w", m.name, err)
	}
	data := buf.Bytes()
	hello, frames, events, err := decodeFrames(data)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", m.name, err)
	}
	plans := hello.PlanTable()
	c.wireBytes = len(data)

	var enc, dec, ing, drn, rpl []float64
	for r := 0; r < layerReps; r++ {
		cw := &countingWriter{}
		var werr error
		d := tr.timed("wire.WriteEvents", func() { werr = encodeFrames(cw, frames) })
		if werr != nil {
			return werr
		}
		enc = append(enc, float64(d))
		c.wireBytes = cw.n

		d = tr.timed("wire.ReadFrameInto", func() { werr = decodeOnly(data) })
		if werr != nil {
			return werr
		}
		dec = append(dec, float64(d))

		for _, disabled := range []bool{false, true} {
			var st monitor.Stats
			var viol []monitor.Violation
			name := "monitor.ingest"
			if disabled {
				name = "monitor.drain"
			}
			d = tr.timed(name, func() { st, viol, werr = ingest(plans, frames, disabled) })
			if werr != nil {
				return werr
			}
			if disabled {
				drn = append(drn, float64(d))
				continue
			}
			ing = append(ing, float64(d))
			if st.Events != events || len(viol) != len(live.Violations) {
				chk.record(fmt.Errorf("%s: monitor replay saw %d events and %d violations, live %d and %d",
					m.name, st.Events, len(viol), events, len(live.Violations)))
			} else {
				chk.record(nil)
			}
		}

		var out *trace.Outcome
		d = tr.timed("trace.Replay", func() { out, werr = trace.Replay(bytes.NewReader(data), trace.ReplayConfig{}) })
		if werr != nil {
			return werr
		}
		rpl = append(rpl, float64(d))
		if !out.Clean || out.Detected != live.Detected || out.Stats.Events != events {
			chk.record(fmt.Errorf("%s: trace replay verdict differs from the live run", m.name))
		} else {
			chk.record(nil)
		}
	}
	c.encode, c.decode = time.Duration(median(enc)), time.Duration(median(dec))
	c.ingest, c.drainOnly = time.Duration(median(ing)), time.Duration(median(drn))
	c.replay = time.Duration(median(rpl))
	return nil
}

// decodeFrames reads a recorded trace into copied per-thread batches.
func decodeFrames(data []byte) (*wire.Hello, []frame, uint64, error) {
	rd := wire.NewReader(bytes.NewReader(data))
	var f wire.Frame
	var hello *wire.Hello
	var frames []frame
	var events uint64
	for {
		err := rd.ReadFrameInto(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, err
		}
		switch f.Type {
		case wire.FrameHello:
			hello = f.Hello
		case wire.FrameEvents, wire.FrameFlush, wire.FrameDone:
			frames = append(frames, frame{typ: f.Type, slot: f.Slot, thread: f.Thread,
				events: append([]monitor.Event(nil), f.Events...)})
			if f.Type == wire.FrameEvents {
				events += uint64(len(f.Events))
			}
		}
	}
	if hello == nil {
		return nil, nil, 0, errors.New("trace has no hello frame")
	}
	return hello, frames, events, nil
}

func encodeFrames(w io.Writer, frames []frame) error {
	wr := wire.NewWriter(w)
	for _, f := range frames {
		var err error
		switch f.typ {
		case wire.FrameEvents:
			err = wr.WriteEvents(f.slot, f.events)
		case wire.FrameFlush:
			err = wr.WriteFlush(f.slot, f.thread)
		case wire.FrameDone:
			err = wr.WriteDone(f.slot, f.thread)
		}
		if err != nil {
			return err
		}
	}
	return wr.Sync()
}

func decodeOnly(data []byte) error {
	rd := wire.NewReader(bytes.NewReader(data))
	var f wire.Frame
	for {
		if err := rd.ReadFrameInto(&f); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// ingest feeds decoded frames into a fresh monitor through per-thread
// Senders, exactly as a replay or the daemon does, and waits for it.
func ingest(plans map[int]*core.CheckPlan, frames []frame, disabled bool) (monitor.Stats, []monitor.Violation, error) {
	mon, err := monitor.New(monitor.Config{NumThreads: threads, Plans: plans, CheckingDisabled: disabled})
	if err != nil {
		return monitor.Stats{}, nil, err
	}
	mon.Start()
	senders := make([]*monitor.Sender, threads)
	for t := range senders {
		senders[t] = mon.Sender(t)
	}
	for _, f := range frames {
		s := senders[f.slot]
		switch f.typ {
		case wire.FrameEvents:
			s.SendBatch(f.events)
		case wire.FrameFlush:
			s.Send(monitor.Event{Kind: monitor.EvFlush, Thread: f.thread})
		case wire.FrameDone:
			s.Send(monitor.Event{Kind: monitor.EvDone, Thread: f.thread})
		}
	}
	mon.Close()
	return mon.Stats(), mon.Violations(), nil
}

// pingPong moves queueEvent events through one SPSC queue in batches,
// one producer and one consumer goroutine, and returns the median
// ns/event over layerReps.
func pingPong(tr *tracer) (float64, error) {
	var per []float64
	batch := make([]monitor.Event, queueBatch)
	for r := 0; r < layerReps; r++ {
		q, err := queue.NewSPSC[monitor.Event](monitor.DefaultQueueCap)
		if err != nil {
			return 0, err
		}
		done := make(chan struct{})
		d := tr.timed("queue.SPSC", func() {
			go func() {
				defer close(done)
				for sent := 0; sent < queueEvent; {
					n := q.PushBatch(batch)
					if n == 0 {
						runtime.Gosched()
					}
					sent += n
				}
			}()
			dst := make([]monitor.Event, queueBatch)
			for got := 0; got < queueEvent; {
				n := q.PopBatch(dst)
				if n == 0 {
					runtime.Gosched()
				}
				got += n
			}
			<-done
		})
		per = append(per, float64(d)/queueEvent)
	}
	return median(per), nil
}

// addCellMetrics reports the interp, monitor, wire, trace and remote
// metrics and the reconciliation of layer times with op times.
func addCellMetrics(rep *report, w io.Writer, cells []*cell, closes, dials, rcloses []float64, reconnects int, queueNs float64) {
	var off, publish, check, active, opL, opR, transport []float64
	var branches, events, instances, dropped, quarantined, wdog uint64
	var encode, decode, replay, ing, drn time.Duration
	var wireBytes int
	fmt.Fprintln(w, "per kernel (ms, medians): off publish check opLocal opRemote events instances")
	for _, c := range cells {
		off = append(off, ms(c.off))
		publish = append(publish, ms(c.drain-c.off))
		check = append(check, ms(c.active-c.drain))
		active = append(active, ms(c.active))
		opL = append(opL, ms(c.opLocal))
		opR = append(opR, ms(c.opRemote))
		transport = append(transport, ms(c.opRemote-c.opLocal))
		branches += c.branches
		events += c.events
		instances += c.instances
		dropped += c.dropped
		quarantined += c.quarantined
		wdog += c.wdog
		encode += c.encode
		decode += c.decode
		replay += c.replay
		ing += c.ingest
		drn += c.drainOnly
		wireBytes += c.wireBytes
		fmt.Fprintf(w, "  %-20s %7.3f %7.3f %7.3f %7.3f %7.3f %8d %8d\n", c.kernel, ms(c.off), ms(c.drain-c.off),
			ms(c.active-c.drain), ms(c.opLocal), ms(c.opRemote), c.events, c.instances)
	}
	n := float64(len(cells))
	ev := float64(events)
	perEv := func(d time.Duration) float64 { return float64(d) / ev }
	note := fmt.Sprintf("(mean over %d kernel×seed cells, medians of %d)", len(cells), layerReps)
	rep.add("interp.run_off_ms", mean(off), "ms", note)
	rep.add("interp.branches_per_op", float64(branches)/n, "count", note)
	rep.add("monitor.publish_ms", mean(publish), "ms", "(drain-only − off) "+note)
	rep.add("monitor.check_ms", mean(check), "ms", "(active − drain-only) "+note)
	p, _ := percentile(closes, 0.5)
	rep.add("monitor.close_ms_p50", p, "ms", fmt.Sprintf("(n=%d)", len(closes)))
	rep.add("monitor.ingest_ns_per_event", perEv(ing), "ns", fmt.Sprintf("(%d events)", events))
	rep.add("monitor.drain_ns_per_event", perEv(drn), "ns", fmt.Sprintf("(%d events)", events))
	rep.addRatio("monitor.overhead_x", ratio{sum(active), sum(off)}, "(active / off interp ms)")
	rep.add("monitor.events_per_op", ev/n, "count", note)
	rep.addRatio("monitor.instances_per_event", ratio{float64(instances), ev}, "")
	rep.add("monitor.dropped", float64(dropped), "count", "")
	rep.add("monitor.quarantined", float64(quarantined), "count", "")
	rep.add("monitor.watchdog_fires", float64(wdog), "count", "")
	rep.add("queue.ns_per_event", queueNs, "ns", fmt.Sprintf("(%d events in batches of %d)", queueEvent, queueBatch))
	rep.add("wire.encode_ns_per_event", perEv(encode), "ns", fmt.Sprintf("(%d events)", events))
	rep.add("wire.decode_ns_per_event", perEv(decode), "ns", fmt.Sprintf("(%d events)", events))
	rep.addRatio("wire.bytes_per_event", ratio{float64(wireBytes), ev}, "(encoded bytes / events)")
	rep.add("trace.replay_ns_per_event", perEv(replay), "ns", fmt.Sprintf("(%d events)", events))
	p, _ = percentile(dials, 0.5)
	rep.add("remote.dial_ms_p50", p, "ms", fmt.Sprintf("(n=%d)", len(dials)))
	p, _ = percentile(rcloses, 0.5)
	rep.add("remote.close_ms_p50", p, "ms", fmt.Sprintf("(n=%d)", len(rcloses)))
	rep.add("remote.transport_ms", mean(transport), "ms", "(facade remote − local op) "+note)
	rep.add("remote.reconnects", float64(reconnects), "count", "")

	// Reconciliation: the layer terms that should add up to an op.
	local := sum(active) // off + publish + check
	rep.addRatio("bench.unattributed_frac.local", ratio{sum(opL) - local, sum(opL)},
		"((op − off − publish − check) / op, summed over cells)")
	wireMS := ms(encode+decode) / n // per op
	remoteTerms := sum(off) + sum(publish) + n*(wireMS+median(dials)+median(rcloses))
	rep.addRatio("bench.unattributed_frac.remote", ratio{sum(opR) - remoteTerms, sum(opR)},
		"((op − off − publish − wire − dial − close) / op, summed over cells)")
}

// campaignLayer runs one campaign per kernel, as the campaign workload
// does, and splits its time into the profiling run and the faulty runs.
func campaignLayer(tr *tracer, rep *report, lb *bench, chk *opCounter) error {
	var profile []float64
	var injected, activated, detected int
	var elapsed time.Duration
	outcome := map[string]*blockwatch.LatencyStats{}
	for k, p := range lb.progs {
		var c *blockwatch.CampaignResult
		var err error
		d := tr.timed("blockwatch.Campaign", func() {
			c, err = p.Campaign(blockwatch.CampaignOptions{
				Threads: threads, Faults: campaignFaults, Model: blockwatch.BranchFlip, Protect: true,
				Seed: campaignSeed(k), Analysis: lb.reports[k], Workers: 1,
			})
		})
		if err != nil {
			return err
		}
		chk.record(nil)
		profile = append(profile, ms(d-c.Elapsed))
		injected += c.Injected
		activated += c.Activated
		detected += c.Detected
		elapsed += c.Elapsed
		for name, ls := range c.Latency {
			agg := outcome[name]
			if agg == nil {
				agg = &blockwatch.LatencyStats{}
				outcome[name] = agg
			}
			agg.Count += ls.Count
			agg.Total += ls.Total
		}
	}
	rep.add("inject.profile_ms", mean(profile), "ms", fmt.Sprintf("(campaign wall − Elapsed, mean of %d)", len(profile)))
	rep.add("inject.run_ms_mean", ms(elapsed)/float64(injected), "ms", fmt.Sprintf("(Elapsed / %d injected)", injected))
	for _, name := range []string{"detected", "sdc", "benign", "crash", "hang"} {
		v, n := 0.0, 0
		if ls := outcome[name]; ls != nil && ls.Count > 0 {
			v, n = ms(ls.Mean()), ls.Count
		}
		rep.add("inject.run_ms_mean."+name, v, "ms", fmt.Sprintf("(n=%d)", n))
	}
	rep.addRatio("inject.activated_frac", ratio{float64(activated), float64(injected)}, "")
	rep.addRatio("inject.detected_frac", ratio{float64(detected), float64(activated)}, "(detected / activated)")
	return nil
}
