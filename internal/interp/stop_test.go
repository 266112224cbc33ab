package interp_test

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"blockwatch/internal/interp"
	"blockwatch/internal/lang/langtest"
	"blockwatch/internal/monitor"
	"blockwatch/internal/splash"
)

// discard is an EventStream that drops every event.
type discard struct{}

func (discard) StreamEvents(int, []monitor.Event) error { return nil }
func (discard) StreamControl(int, monitor.Event) error  { return nil }

// flagSink is a fake monitor whose verdict turns to Detected once it has
// been asked `after` times: a violation that arrives mid-run, whatever
// branches the program's threads send.
type flagSink struct {
	*monitor.Relay
	asked atomic.Uint64
	after uint64
}

func (s *flagSink) Detected() bool { return s.asked.Add(1) > s.after }

// runStopped runs src at two threads with a Stop hook that polls a
// flagSink flagging at its 200th poll, after about 200k steps of the
// threads that run.
func runStopped(t *testing.T, src string) *interp.Result {
	t.Helper()
	mod := compileSrc(t, "stop", src)
	r, err := monitor.NewRelay(monitor.RelayConfig{NumThreads: 2, Stream: discard{}})
	if err != nil {
		t.Fatal(err)
	}
	sink := &flagSink{Relay: r, after: 200}
	res, err := interp.Run(mod, interp.Options{
		Threads: 2, Mode: interp.MonitorActive, Plans: plansOf(t, mod), Sink: sink,
		Stop: sink.Detected,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("the run ended before its sink flagged: nothing was stopped")
	}
	for tid, tr := range res.Traps {
		if tr == nil || tr.Kind != interp.TrapAborted {
			t.Errorf("thread %d: trap %v, want %s", tid, tr, interp.TrapAborted)
		}
	}
	return res
}

// spin is a loop that would run for a second (and then trap at the step
// limit) if nothing stopped it.
const spin = `
func int spin() {
	int i;
	int s = 0;
	for (i = 0; i < 100000000; i = i + 1) {
		s = s + i % 7;
	}
	return s;
}
`

// TestStopAbortsEveryThread: a Stop hook that turns true mid-run aborts
// the machine, and every thread traps TrapAborted.
func TestStopAbortsEveryThread(t *testing.T) {
	runStopped(t, spin+`
func void slave() {
	output(spin());
}`)
}

// TestStopReleasesBarrierWaiter: thread 1 parks at a barrier that thread
// 0 reaches only after its long loop; the stop must release it.
func TestStopReleasesBarrierWaiter(t *testing.T) {
	runStopped(t, spin+`
func void slave() {
	if (tid() == 0) {
		output(spin());
	}
	barrier();
}`)
}

// TestStopReleasesLockWaiter: thread 0 holds a lock through its long
// loop while thread 1, which asks later in simulated time, waits for it;
// the stop must release the waiter. It leaves through the abort's wake,
// or is granted the lock the aborted holder drops on exit and traps at
// its next poll.
func TestStopReleasesLockWaiter(t *testing.T) {
	runStopped(t, spin+`
func void slave() {
	int j;
	for (j = 0; j < tid() * 50; j = j + 1) {
		output(j);
	}
	lock(1);
	if (tid() == 0) {
		output(spin());
	}
	unlock(1);
	output(spin());
}`)
}

// TestStopNeverFiringIsInvisible: a Stop hook that is polled but never
// fires leaves outputs, clocks, traps, verdicts and event streams
// exactly as TestGoldenDigest recorded them, for each of its protected
// cases.
func TestStopNeverFiringIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every protected golden case")
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	var polls atomic.Uint64
	never := func() bool { polls.Add(1); return false }
	g := &golden{t: t}

	for _, name := range splash.Names() {
		mod, err := splash.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		plans := plansOf(t, mod)
		for _, threads := range []int{1, 2, 4, 8} {
			for _, seed := range []uint64{1, 23} {
				g.runHashed(fmt.Sprintf("kernel/%s/t%d/s%d/active", name, threads, seed), mod,
					interp.Options{Threads: threads, Seed: seed, Stop: never}, plans, nil)
			}
		}
		for _, seq := range []uint64{3, 40, 400} {
			for _, corrupt := range []bool{false, true} {
				g.runHashed(fmt.Sprintf("fault/%s/seq%d/corrupt=%t", name, seq, corrupt), mod,
					interp.Options{Threads: 1, StepLimit: 20_000_000, Stop: never}, plans,
					&goldenInjector{tid: 0, seq: seq, corrupt: corrupt, bit: 5})
			}
		}
	}
	pmod := compileSrc(t, "param", goldenParamProg)
	pplans := plansOf(t, pmod)
	for seq := uint64(1); seq <= 8; seq++ {
		g.runHashed(fmt.Sprintf("corrupt/param/seq%d", seq), pmod,
			interp.Options{Threads: 2, Stop: never}, pplans,
			&goldenInjector{tid: 0, seq: seq, corrupt: true, bit: 2})
	}
	for seed := int64(0); seed < 100; seed++ {
		mod := compileSrc(t, "gen", langtest.Generate(seed, langtest.Options{}))
		opts := interp.Options{Threads: 1 + int(seed%4), Seed: uint64(seed), StepLimit: 5_000_000, Stop: never}
		g.runHashed(fmt.Sprintf("gen/%d/t%d/active", seed, opts.Threads), mod, opts, plansOf(t, mod), nil)
	}

	if polls.Load() == 0 {
		t.Fatal("no run polled its Stop hook")
	}
	for _, line := range g.lines {
		name, _, _ := strings.Cut(line, " ")
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden case of that name", name)
		} else if line != w {
			t.Errorf("with a Stop hook that never fires:\n got %s\nwant %s", line, w)
		}
	}
}
