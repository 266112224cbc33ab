package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"blockwatch"
	"blockwatch/internal/remote"
)

const (
	// progSeeds is the number of program seeds (RunOptions.Seed) per
	// kernel; kernels-* ops cycle through kernels × seeds.
	progSeeds = 2
	// campaignFaults is the fault count of one campaign op.
	campaignFaults = 10
	// setupReps is how many times set-up is repeated to report its median.
	setupReps = 5
)

// bench is one set-up workload: the loaded and analyzed kernels, the
// reference results, and for kernels-remote the in-process daemon.
type bench struct {
	workload string
	kernels  []string
	progs    []*blockwatch.Program
	reports  []*blockwatch.Report
	seeds    []uint64      // program seeds
	refs     [][]reference // [kernel][seed]
	start    int           // first kernel of the campaign rotation

	// Campaign ops use fixed per-kernel seeds, so that coverage does not
	// depend on the workload seed; campaignEvents[k] is kernel k's event
	// count in a clean protected run at the campaigns' program seed 0.
	campaignEvents []uint64

	server *remote.Server
	served chan error // Serve's return value
	addr   string     // RunOptions.Remote for kernels-remote
	sock   string     // socket file to remove after the run
}

// deriveSeed mixes the workload seed with a stream index.
func deriveSeed(seed int64, stream string, i int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, i)
	return h.Sum64()
}

// campaignSeed is the fixed campaign seed of kernel k.
func campaignSeed(k int) int64 { return int64(1000 + k) }

type setupTimes struct {
	median float64
	n      int
}

// setUpRepeated sets the workload up setupReps times and keeps the last
// set-up; the reported time is the median.
func setUpRepeated(cfg config) (*bench, setupTimes, error) {
	var b *bench
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			b.close()
		}
		t0 := time.Now()
		var err error
		b, err = setUp(cfg)
		if err != nil {
			return nil, setupTimes{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	runtime.GC()
	return b, setupTimes{median(secs), len(secs)}, nil
}

// setUp loads and analyzes the seven kernels, computes the reference
// results per kernel and seed, and starts the daemon for kernels-remote.
func setUp(cfg config) (*bench, error) {
	b := &bench{workload: cfg.workload, kernels: blockwatch.Benchmarks()}
	for _, name := range b.kernels {
		p, err := blockwatch.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		rep, err := p.Analyze(blockwatch.AnalysisOptions{})
		if err != nil {
			return nil, fmt.Errorf("analyze %s: %w", name, err)
		}
		b.progs = append(b.progs, p)
		b.reports = append(b.reports, rep)
	}
	if cfg.workload == "campaign" {
		b.start = int(deriveSeed(cfg.seed, "rotation", 0) % uint64(len(b.kernels)))
		for k := range b.kernels {
			ref, err := b.reference(k, 0)
			if err != nil {
				return nil, err
			}
			b.campaignEvents = append(b.campaignEvents, ref.events)
		}
		return b, nil
	}
	for i := 0; i < progSeeds; i++ {
		b.seeds = append(b.seeds, deriveSeed(cfg.seed, "program", i))
	}
	b.refs = make([][]reference, len(b.kernels))
	for k := range b.kernels {
		for _, s := range b.seeds {
			ref, err := b.reference(k, s)
			if err != nil {
				return nil, err
			}
			b.refs[k] = append(b.refs[k], *ref)
		}
	}
	if cfg.workload == "kernels-remote" {
		if err := b.startDaemon(cfg.out); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// reference runs kernel k at program seed s unprotected (the reference
// output) and protected in process (the verdict and event count).
func (b *bench) reference(k int, s uint64) (*reference, error) {
	p := b.progs[k]
	plain, err := p.Run(blockwatch.RunOptions{Threads: threads, Seed: s})
	if err != nil {
		return nil, fmt.Errorf("reference run of %s: %w", p.Name(), err)
	}
	if plain.Crashed || plain.Hung {
		return nil, fmt.Errorf("reference run of %s did not finish cleanly", p.Name())
	}
	reg := blockwatch.NewMetricsRegistry()
	prot, err := p.Run(blockwatch.RunOptions{
		Threads: threads, Seed: s, Protect: true, Analysis: b.reports[k], Metrics: reg,
	})
	if err != nil {
		return nil, fmt.Errorf("protected reference run of %s: %w", p.Name(), err)
	}
	events, _ := reg.Snapshot().Counter("bw_monitor_events_total")
	ref := &reference{
		output:     plain.Output,
		detected:   prot.Detected,
		violations: prot.Violations,
		events:     events,
	}
	if err := checkClean(ref, prot); err != nil {
		return nil, fmt.Errorf("protected reference run of %s: %w", p.Name(), err)
	}
	return ref, nil
}

// startDaemon serves remote monitoring sessions from this process on a
// unix socket. The path is relative to the working directory, keeping it
// inside the socket-path length limit however deep the checkout is.
func (b *bench) startDaemon(dir string) error {
	b.sock = fmt.Sprintf("bwperf-%d.sock", os.Getpid())
	if filepath.IsAbs(dir) {
		if wd, err := os.Getwd(); err == nil {
			if rel, err := filepath.Rel(wd, dir); err == nil {
				dir = rel
			}
		}
	}
	b.sock = filepath.Join(dir, b.sock)
	b.addr = "unix:" + b.sock
	ln, err := remote.Listen(b.addr)
	if err != nil {
		return fmt.Errorf("daemon listen: %w", err)
	}
	b.server = remote.NewServer(remote.ServerConfig{})
	b.served = make(chan error, 1)
	go func() { b.served <- b.server.Serve(ln) }()
	return nil
}

// close stops the daemon, if any, and waits for it.
func (b *bench) close() {
	if b.server == nil {
		return
	}
	b.server.Close()
	if err := <-b.served; err != nil && !errors.Is(err, remote.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "bwperf: daemon:", err)
	}
	os.Remove(b.sock)
	b.server = nil
}

// loopStats is what one closed loop measured.
type loopStats struct {
	wall        time.Duration
	latMS       []float64 // latency of each passing op
	runs        int       // program executions completed
	events      uint64    // branch events of those executions
	heapMB      float64
	heapWindows int
	ops         opCounter
	coverage    ratio
	allocBytes  uint64 // heap bytes allocated over the loop
	gcs         uint32 // GC cycles over the loop

	// Throughput per segment of segmentLen; the reported rate is their
	// median, so a few seconds of interference from outside the process
	// move it less than they move the whole-run mean.
	runRates, eventRates []float64
}

const segmentLen = 2 * time.Second

// rates returns the median run and event rates over whole segments, or
// the whole-run rates when the loop was shorter than one segment.
func (lp *loopStats) rates() (runs, events float64) {
	if len(lp.runRates) == 0 {
		s := lp.wall.Seconds()
		return float64(lp.runs) / s, float64(lp.events) / s
	}
	return median(lp.runRates), median(lp.eventRates)
}

// loop runs the workload's ops back to back for at least d, and at least
// one full rotation. With tr non-nil every op is wrapped in a span.
func (b *bench) loop(d time.Duration, tr *tracer) *loopStats {
	minOps := len(b.kernels) * progSeeds
	if b.workload == "campaign" {
		minOps = len(b.kernels)
	}
	lp := &loopStats{}
	var firstTally []*tally
	if b.workload == "campaign" {
		firstTally = make([]*tally, len(b.kernels))
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	heap := startHeapSampler(10*time.Millisecond, time.Second, readHeap)
	t0 := time.Now()
	seg, segRuns, segEvents := t0, 0, uint64(0)
	for i := 0; i < minOps || time.Since(t0) < d; i++ {
		if el := time.Since(seg); el >= segmentLen {
			lp.runRates = append(lp.runRates, float64(lp.runs-segRuns)/el.Seconds())
			lp.eventRates = append(lp.eventRates, float64(lp.events-segEvents)/el.Seconds())
			seg, segRuns, segEvents = time.Now(), lp.runs, lp.events
		}
		var sp int
		if tr != nil {
			sp = tr.begin("op/"+b.workload, i)
		}
		var err error
		if b.workload == "campaign" {
			err = b.campaignOp(i, lp, firstTally)
		} else {
			err = b.kernelOp(i, lp)
		}
		if tr != nil {
			tr.end(sp)
		}
		lp.ops.record(err)
	}
	lp.wall = time.Since(t0)
	lp.heapMB, lp.heapWindows = heap.finish()
	runtime.ReadMemStats(&ms1)
	lp.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	lp.gcs = ms1.NumGC - ms0.NumGC
	if b.workload == "campaign" {
		for _, t := range firstTally {
			if t != nil {
				lp.coverage.num += float64(t.Activated - t.SDC)
				lp.coverage.den += float64(t.Activated)
			}
		}
	}
	return lp
}

// kernelOp runs op i of a kernels-* workload: one protected run of the
// next kernel in Table IV order, in process or against the daemon.
func (b *bench) kernelOp(i int, lp *loopStats) error {
	k := i % len(b.kernels)
	si := (i / len(b.kernels)) % len(b.seeds)
	ref := &b.refs[k][si]
	opts := blockwatch.RunOptions{
		Threads: threads, Seed: b.seeds[si], Protect: true, Analysis: b.reports[k], Remote: b.addr,
	}
	t := time.Now()
	got, err := b.progs[k].Run(opts)
	el := time.Since(t)
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", b.kernels[k], si, err)
	}
	lp.coverage.den++
	if got.Detected || slices.Equal(got.Output, ref.output) {
		lp.coverage.num++
	}
	if b.addr != "" {
		err = checkRemote(ref, got)
	} else {
		err = checkClean(ref, got)
	}
	if err != nil {
		return fmt.Errorf("%s seed %d: %w", b.kernels[k], si, err)
	}
	lp.latMS = append(lp.latMS, ms(el))
	lp.runs++
	lp.events += ref.events
	return nil
}

// campaignOp runs op i of the campaign workload: one branch-flip
// campaign on the next kernel of the rotation.
func (b *bench) campaignOp(i int, lp *loopStats, first []*tally) error {
	k := (b.start + i) % len(b.kernels)
	t := time.Now()
	c, err := b.progs[k].Campaign(blockwatch.CampaignOptions{
		Threads: threads, Faults: campaignFaults, Model: blockwatch.BranchFlip, Protect: true,
		Seed: campaignSeed(k), Analysis: b.reports[k], Workers: 1,
	})
	el := time.Since(t)
	if err != nil {
		return fmt.Errorf("campaign on %s: %w", b.kernels[k], err)
	}
	got := tallyOf(c)
	if first[k] == nil {
		first[k] = &got
	} else if err := checkCampaign(*first[k], got); err != nil {
		return fmt.Errorf("%s: %w", b.kernels[k], err)
	}
	lp.latMS = append(lp.latMS, ms(el))
	lp.runs += c.Injected
	lp.events += uint64(c.Injected) * b.campaignEvents[k]
	return nil
}

func (b *bench) eventsNote() string {
	if b.workload == "campaign" {
		return "; a faulty run is credited its kernel's clean-run event count"
	}
	return ""
}

func (b *bench) coverageNote() string {
	if b.workload == "campaign" {
		return "(activated − SDC / activated, one campaign per kernel)"
	}
	return "(runs without silent output corruption / runs)"
}
