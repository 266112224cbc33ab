package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/inject"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/monitor"
	"blockwatch/internal/splash"
	"blockwatch/internal/wire"
)

const testThreads = 4

func kernelPlans(t testing.TB, name string) (*ir.Module, map[int]*core.CheckPlan) {
	t.Helper()
	prog, err := splash.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := prog.Compile()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mod, a.Plans
}

// equalViolations compares violation lists by value (nil and empty are
// the same verdict).
func equalViolations(a, b []monitor.Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordRun executes one run with a Recorder sink and returns the run
// result plus the raw trace bytes.
func recordRun(t testing.TB, name string, mod *ir.Module, plans map[int]*core.CheckPlan, fault *inject.Fault) (*interp.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec, err := NewRecorder(&buf, RecorderConfig{Program: name, NumThreads: testThreads, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	opts := interp.Options{Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: rec}
	if fault != nil {
		opts.Fault = inject.NewSingle(*fault)
	}
	res, err := interp.Run(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestRecordReplayCleanAndFaulty is the record→replay acceptance test:
// for every kernel, a recorded run (clean and with an injected fault)
// must replay to byte-identical violations, and the replay must also
// match the verdict sealed into the trace.
func TestRecordReplayCleanAndFaulty(t *testing.T) {
	anyDetected := false
	for _, name := range splash.Names() {
		mod, plans := kernelPlans(t, name)
		clean, err := interp.Run(mod, interp.Options{Threads: testThreads})
		if err != nil {
			t.Fatal(err)
		}
		faults := []*inject.Fault{nil}
		if seq := clean.BranchCounts[1] / 2; seq > 0 {
			faults = append(faults, &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: seq})
		}
		for _, fault := range faults {
			label := name + "/clean"
			if fault != nil {
				label = name + "/faulty"
			}
			live, traceBytes := recordRun(t, name, mod, plans, fault)
			if live.MonitorHealth != monitor.Healthy {
				t.Errorf("%s: recording run health = %v, want Healthy", label, live.MonitorHealth)
			}
			out, err := Replay(bytes.NewReader(traceBytes), ReplayConfig{})
			if err != nil {
				t.Fatalf("%s: replay: %v", label, err)
			}
			if !out.Clean {
				t.Errorf("%s: sealed trace reports Clean=false", label)
			}
			if out.Detected != live.Detected {
				t.Errorf("%s: replay Detected=%t, live %t", label, out.Detected, live.Detected)
			}
			if !reflect.DeepEqual(out.Violations, live.Violations) {
				t.Errorf("%s: replay violations differ\n live:   %v\n replay: %v", label, live.Violations, out.Violations)
			}
			if out.Recorded == nil {
				t.Fatalf("%s: sealed trace has no result frame", label)
			}
			if !equalViolations(out.Recorded.Violations, out.Violations) {
				t.Errorf("%s: recorded verdict differs from replay\n recorded: %v\n replay:   %v",
					label, out.Recorded.Violations, out.Violations)
			}
			if out.Stats.Events != live.MonitorStats.Events || out.Stats.Instances != live.MonitorStats.Instances {
				t.Errorf("%s: replay stats %+v, live %+v", label, out.Stats, live.MonitorStats)
			}
			if fault != nil && live.Detected {
				anyDetected = true
			}
		}
	}
	if !anyDetected {
		t.Error("no faulty recording detected anything — replay equality was only exercised on empty violation sets")
	}
}

// TestReplayDeterministic replays the same trace twice; the verdicts
// must be identical (the trace pins the full event order).
func TestReplayDeterministic(t *testing.T) {
	mod, plans := kernelPlans(t, "radix")
	clean, err := interp.Run(mod, interp.Options{Threads: testThreads})
	if err != nil {
		t.Fatal(err)
	}
	fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: clean.BranchCounts[1] / 2}
	_, traceBytes := recordRun(t, "radix", mod, plans, fault)
	a, err := Replay(bytes.NewReader(traceBytes), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(bytes.NewReader(traceBytes), ReplayConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Violations, b.Violations) || a.Detected != b.Detected {
		t.Errorf("replays differ:\n first:  %v\n second: %v", a.Violations, b.Violations)
	}
}

// TestTruncatedTraceStillChecks: a trace cut mid-stream (recorder died)
// replays what it has — Clean=false, no crash, events before the cut
// are checked.
func TestTruncatedTraceStillChecks(t *testing.T) {
	mod, plans := kernelPlans(t, "fft")
	_, traceBytes := recordRun(t, "fft", mod, plans, nil)

	// Find a frame boundary to cut at: walk frames and keep ~half.
	info, err := Stat(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if info.Events == 0 {
		t.Fatal("trace recorded no events")
	}
	cut := len(traceBytes) / 2
	// Scan backward for a clean frame boundary by trial replay; frame
	// alignment is unknown at an arbitrary byte offset, so accept either a
	// truncated-but-parsed outcome or a corrupt-frame error at the exact
	// cut. A cut INSIDE a frame must yield a corruption error, not a panic.
	out, err := Replay(bytes.NewReader(traceBytes[:cut]), ReplayConfig{})
	if err == nil {
		if out.Clean {
			t.Error("truncated trace reports Clean=true")
		}
		if out.Recorded != nil {
			t.Error("truncated trace carries a result frame")
		}
	}
}

// TestRecorderSurvivesDeadFile: the trace writer failing mid-run must
// not disturb the in-process checking — fail-open, coverage of the
// recording lost, detection verdict intact.
type failAfterWriter struct {
	n      int // bytes to accept before failing
	wrote  int
	failed bool
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.wrote+len(p) > w.n {
		w.failed = true
		return 0, bytes.ErrTooLarge
	}
	w.wrote += len(p)
	return len(p), nil
}

func TestRecorderSurvivesDeadFile(t *testing.T) {
	mod, plans := kernelPlans(t, "radix")
	clean, err := interp.Run(mod, interp.Options{Threads: testThreads})
	if err != nil {
		t.Fatal(err)
	}
	fault := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: clean.BranchCounts[1] / 2}

	// Reference: the same faulty run with a plain in-process monitor.
	ref, err := interp.Run(mod, interp.Options{
		Threads: testThreads, Mode: interp.MonitorActive, Plans: plans,
		Fault: inject.NewSingle(*fault),
	})
	if err != nil {
		t.Fatal(err)
	}

	w := &failAfterWriter{n: 1 << 14} // dies partway through the stream
	rec, err := NewRecorder(w, RecorderConfig{Program: "radix", NumThreads: testThreads, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(mod, interp.Options{
		Threads: testThreads, Mode: interp.MonitorActive, Plans: plans,
		Fault: inject.NewSingle(*fault), Sink: rec,
	})
	if err != nil {
		t.Fatalf("run failed when the trace file died: %v", err)
	}
	if !w.failed {
		t.Fatal("writer never failed — test exercised nothing")
	}
	if res.MonitorHealth != monitor.Degraded {
		t.Errorf("health = %v, want Degraded (lost recording)", res.MonitorHealth)
	}
	if res.Detected != ref.Detected {
		t.Errorf("in-process detection disturbed by dead trace file: got %t, want %t", res.Detected, ref.Detected)
	}
	if !reflect.DeepEqual(res.Violations, ref.Violations) {
		t.Errorf("violations disturbed by dead trace file:\n got  %v\n want %v", res.Violations, ref.Violations)
	}
}

// TestStat verifies the trace summary against the live run's counters.
func TestStat(t *testing.T) {
	mod, plans := kernelPlans(t, "fft")
	live, traceBytes := recordRun(t, "fft", mod, plans, nil)
	info, err := Stat(bytes.NewReader(traceBytes))
	if err != nil {
		t.Fatal(err)
	}
	if info.Program != "fft" || info.Threads != testThreads {
		t.Errorf("header: %q/%d, want fft/%d", info.Program, info.Threads, testThreads)
	}
	if info.Plans == 0 {
		t.Error("no plans in header")
	}
	if !info.Clean || info.Recorded == nil {
		t.Error("sealed trace not reported clean with a result frame")
	}
	if info.DoneThreads != testThreads {
		t.Errorf("done markers = %d, want %d", info.DoneThreads, testThreads)
	}
	var total uint64
	for tid, n := range info.EventsPerThread {
		total += n
		if uint64(n) != live.EventCounts[tid] {
			t.Errorf("thread %d: trace has %d events, run sent %d", tid, n, live.EventCounts[tid])
		}
	}
	if total != info.Events {
		t.Errorf("per-thread events sum %d != total %d", total, info.Events)
	}
	if info.Recorded.Stats.Events != live.MonitorStats.Events {
		t.Errorf("recorded stats events %d, live %d", info.Recorded.Stats.Events, live.MonitorStats.Events)
	}
}

// TestReplayRejectsGarbage: not-a-trace inputs error cleanly.
func TestReplayRejectsGarbage(t *testing.T) {
	if _, err := Replay(bytes.NewReader([]byte("not a trace")), ReplayConfig{}); err == nil {
		t.Error("garbage accepted as a trace")
	}
	if _, err := Stat(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted as a trace")
	}
}

// v1Hello returns a hello frame as a version-1 build wrote it: version 2
// left the hello's layout as it was, so it is today's hello with the
// version field set to 1 and the CRC recomputed.
func v1Hello(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteHello(&wire.Hello{Version: wire.Version, Program: "old", Threads: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[5+4] = 1 // the version varint follows the 5-byte frame header and the magic
	tab := crc32.MakeTable(crc32.Castagnoli)
	crc := crc32.Update(crc32.Checksum(b[:1], tab), tab, b[5:len(b)-4])
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	return b
}

// TestReplayRefusesVersion1: a trace recorded by a version-1 build is
// refused with ErrVersion and a message naming the cause, never decoded
// with the wrong record layout.
func TestReplayRefusesVersion1(t *testing.T) {
	_, err := Replay(bytes.NewReader(v1Hello(t)), ReplayConfig{})
	if !errors.Is(err, wire.ErrVersion) || !strings.Contains(err.Error(), "incompatible build") {
		t.Fatalf("Replay(v1 trace) error = %v, want ErrVersion naming an incompatible build", err)
	}
	if _, err := Stat(bytes.NewReader(v1Hello(t))); !errors.Is(err, wire.ErrVersion) {
		t.Fatalf("Stat(v1 trace) error = %v, want ErrVersion", err)
	}
}

// TestEmptyTraceDiagnostics: zero-length inputs are reported as "no
// header was ever written" (ErrEmptyTrace), not as generic decode
// corruption — the CLI leans on this to tell a never-started recording
// apart from a damaged one.
func TestEmptyTraceDiagnostics(t *testing.T) {
	if _, err := Stat(bytes.NewReader(nil)); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("Stat(empty) error = %v, want ErrEmptyTrace", err)
	}
	if _, err := Replay(bytes.NewReader(nil), ReplayConfig{}); !errors.Is(err, ErrEmptyTrace) {
		t.Errorf("Replay(empty) error = %v, want ErrEmptyTrace", err)
	}
}

// TestTruncatedHeaderDiagnostics: a file cut off inside the very first
// frame names the header in its error, so the user learns the recording
// died while writing it rather than getting a bare short-read.
func TestTruncatedHeaderDiagnostics(t *testing.T) {
	mod, plans := kernelPlans(t, "fft")
	_, traceBytes := recordRun(t, "fft", mod, plans, nil)
	// Cuts landing in the frame type byte's tail, the length word, and
	// the hello payload — all are "inside the header frame".
	for _, cut := range []int{1, 3, 10} {
		part := traceBytes[:cut]
		if _, err := Stat(bytes.NewReader(part)); err == nil || !strings.Contains(err.Error(), "truncated inside the header") {
			t.Errorf("Stat(cut=%d) error = %v, want header-truncation diagnostic", cut, err)
		}
		if _, err := Replay(bytes.NewReader(part), ReplayConfig{}); err == nil || !strings.Contains(err.Error(), "truncated inside the header") {
			t.Errorf("Replay(cut=%d) error = %v, want header-truncation diagnostic", cut, err)
		}
	}
}

// TestHeaderOnlyTrace: a trace holding just the hello frame (recorder
// died before the first event) stats and replays without error, with an
// explicit not-sealed, zero-event verdict.
func TestHeaderOnlyTrace(t *testing.T) {
	_, plans := kernelPlans(t, "fft")
	var buf bytes.Buffer
	wr := wire.NewWriter(&buf)
	if err := wr.WriteHello(wire.HelloFromPlans("fft", testThreads, plans)); err != nil {
		t.Fatal(err)
	}
	if err := wr.Sync(); err != nil {
		t.Fatal(err)
	}

	info, err := Stat(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Stat(header-only): %v", err)
	}
	if info.Program != "fft" || info.Threads != testThreads {
		t.Errorf("header: %q/%d, want fft/%d", info.Program, info.Threads, testThreads)
	}
	if info.Frames != 0 || info.Events != 0 {
		t.Errorf("header-only trace: frames=%d events=%d, want 0/0", info.Frames, info.Events)
	}
	if info.Clean || info.Recorded != nil {
		t.Error("header-only trace reported as sealed")
	}

	o, err := Replay(bytes.NewReader(buf.Bytes()), ReplayConfig{})
	if err != nil {
		t.Fatalf("Replay(header-only): %v", err)
	}
	if o.Clean || o.Detected || o.Stats.Events != 0 {
		t.Errorf("header-only replay: clean=%v detected=%v events=%d, want false/false/0",
			o.Clean, o.Detected, o.Stats.Events)
	}
}

// TestReplayGatedBacklogPastQueueCap replays a trace in which thread 0
// runs 200 events past a barrier that thread 1 reaches only afterwards,
// more than QueueCap: the replay force-closes the generation as the
// watchdog would, instead of waiting for room that only a later frame of
// the same trace could make, and returns a degraded outcome.
func TestReplayGatedBacklogPastQueueCap(t *testing.T) {
	run := func(tid, key2, n int) []monitor.Event {
		evs := make([]monitor.Event, n)
		for k := range evs {
			evs[k] = monitor.Event{Kind: monitor.EvBranch, Thread: int32(tid), BranchID: 1,
				Key1: 1000, Key2: uint64(key2 + k), Sig: 5, Taken: true}
		}
		return evs
	}
	plans := map[int]*core.CheckPlan{1: {BranchID: 1, Kind: core.CheckShared, Reason: core.ReasonChecked}}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for _, err := range []error{
		w.WriteHello(wire.HelloFromPlans("backlog", 2, plans)),
		w.WriteEvents(0, run(0, 0, 10)),
		w.WriteFlush(0, 0),
		w.WriteEvents(0, run(0, 10, 200)),
		w.WriteEvents(1, run(1, 0, 10)),
		w.WriteFlush(1, 1),
		w.WriteDone(0, 0),
		w.WriteDone(1, 1),
		w.WriteFinish(),
		w.Sync(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	type replayed struct {
		out *Outcome
		err error
	}
	done := make(chan replayed, 1)
	go func() {
		out, err := Replay(bytes.NewReader(buf.Bytes()), ReplayConfig{QueueCap: 64})
		done <- replayed{out, err}
	}()
	var r replayed
	select {
	case r = <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Replay did not return")
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	st := r.out.Stats
	if !r.out.Clean || r.out.Health != monitor.Degraded || st.Watchdog != 1 || r.out.Detected {
		t.Errorf("outcome: clean %t, %s %+v, detected %t; want clean, degraded, one forced close, no violation",
			r.out.Clean, r.out.Health, st, r.out.Detected)
	}
	if st.Events != 210 || st.Quarantined != 10 {
		t.Errorf("Events = %d, Quarantined = %d; want 210 and 10", st.Events, st.Quarantined)
	}
}

// runInProcess runs the program under a plain in-process monitor
// (monitor.New), the independent reference for a recorded run.
func runInProcess(t testing.TB, mod *ir.Module, plans map[int]*core.CheckPlan, fault *inject.Fault) *interp.Result {
	t.Helper()
	mon, err := monitor.New(monitor.Config{NumThreads: testThreads, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	opts := interp.Options{Threads: testThreads, Mode: interp.MonitorActive, Plans: plans, Sink: mon}
	if fault != nil {
		opts.Fault = inject.NewSingle(*fault)
	}
	res, err := interp.Run(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecordingMatchesInProcessAllKernels runs every SPLASH kernel under
// a Recorder and under an in-process monitor, clean and at three
// deterministic fault positions, and requires the same output, verdict
// and checked event count. A fault that makes the execution itself
// schedule-dependent (the two runs differ in events sent or output) is
// a different program under each sink, so its comparison is skipped; at
// least one compared faulty run must detect, so the equality is not
// only about empty violation sets.
func TestRecordingMatchesInProcessAllKernels(t *testing.T) {
	anyDetected := false
	for _, name := range splash.Names() {
		mod, plans := kernelPlans(t, name)
		clean := runInProcess(t, mod, plans, nil)
		faults := []*inject.Fault{nil}
		for _, frac := range []uint64{2, 3, 5} {
			if seq := clean.BranchCounts[1] / frac; seq > 0 {
				faults = append(faults, &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: seq})
			}
		}
		for _, fault := range faults {
			label, local := name+"/clean", clean
			if fault != nil {
				label = fmt.Sprintf("%s/fault@%d", name, fault.Seq)
				local = runInProcess(t, mod, plans, fault)
			}
			recorded, _ := recordRun(t, name, mod, plans, fault)
			if !reflect.DeepEqual(local.EventCounts, recorded.EventCounts) ||
				!reflect.DeepEqual(local.BranchCounts, recorded.BranchCounts) ||
				!reflect.DeepEqual(local.Output, recorded.Output) {
				if fault == nil {
					t.Fatalf("%s: clean runs differ in events, branches or output", label)
				}
				t.Logf("%s: faulty execution diverged under different sink timing — comparison skipped", label)
				continue
			}
			if recorded.Detected != local.Detected || !reflect.DeepEqual(recorded.Violations, local.Violations) {
				t.Errorf("%s: verdict differs\n in-process: %t %v\n recorded:   %t %v",
					label, local.Detected, local.Violations, recorded.Detected, recorded.Violations)
			}
			if recorded.MonitorStats.Events != local.MonitorStats.Events {
				t.Errorf("%s: checked events: in-process %d, recorded %d", label, local.MonitorStats.Events, recorded.MonitorStats.Events)
			}
			if recorded.MonitorHealth != monitor.Healthy {
				t.Errorf("%s: recorded health = %v, want Healthy", label, recorded.MonitorHealth)
			}
			if fault != nil && local.Detected {
				anyDetected = true
			}
		}
	}
	if !anyDetected {
		t.Error("no compared faulty run detected anything — the equality checks were vacuous")
	}
}

// wedgeDeadline bounds one small-ring recording, which takes about
// 10 ms; a recording that passes it is wedged.
const wedgeDeadline = 10 * time.Second

// TestRecorderSmallRingsNeverWedge records noncontinuous-ocean at two
// threads over 256-event rings, 100 times, and requires every recording
// to finish within wedgeDeadline, clean and healthy with no forced
// close. A recorder that forwarded into a second ring set could wedge
// here: its relay parked on a full inner ring of a gated thread, while
// the flush that would close the generation waited in another thread's
// relay ring behind it.
func TestRecorderSmallRingsNeverWedge(t *testing.T) {
	const threads, runs = 2, 100
	mod, plans := kernelPlans(t, "noncontinuous-ocean")
	for i := range runs {
		done := make(chan *interp.Result, 1)
		go func() {
			rec, err := NewRecorder(io.Discard, RecorderConfig{
				Program: "noncontinuous-ocean", NumThreads: threads, Plans: plans, QueueCap: 256,
			})
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			res, err := interp.Run(mod, interp.Options{Threads: threads, Mode: interp.MonitorActive, Plans: plans, Sink: rec})
			if err != nil {
				t.Error(err)
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res == nil {
				t.FailNow()
			}
			if res.Detected || res.MonitorHealth != monitor.Healthy || res.MonitorStats.Watchdog != 0 {
				t.Fatalf("recording %d: detected %t, health %v, %d forced closes; want a clean, healthy run",
					i, res.Detected, res.MonitorHealth, res.MonitorStats.Watchdog)
			}
		case <-time.After(wedgeDeadline):
			t.Fatalf("recording %d did not finish within %v: the recorder wedged", i, wedgeDeadline)
		}
	}
}
