package interp

import (
	"errors"
	"reflect"
	"testing"

	"blockwatch/internal/ir"
	"blockwatch/internal/splash"
)

// resumeProg draws rnd() and takes a lock between barriers, which no
// kernel does: a resumed thread must continue its own rnd() stream, and
// the lock grants must follow the restored clocks.
const resumeProg = `
global int acc[64];
global int total;

func void slave() {
	int me = tid();
	int r;
	int i;
	for (r = 0; r < 4; r = r + 1) {
		for (i = 0; i < 3 + me % 5; i = i + 1) {
			acc[me] = acc[me] + rnd() % 100;
		}
		lock(3);
		total = total + acc[me] * (r + 1);
		unlock(3);
		barrier();
		if (me == 0) {
			output(total);
		}
		barrier();
	}
	output(acc[me]);
}
`

// raceProgs are the programs TestResumeMatchesFromStart runs under the
// race detector.
var raceProgs = map[string]bool{"continuous-ocean": true, "fft": true, "water-nsquared": true, "rnd-locks": true}

// TestResumeMatchesFromStart: a clean run resumed from any episode its
// own run captured ends exactly as the run from the top, with the same
// output, clocks, branch and event counts and traps, and resuming leaves
// the snapshot as it was. Clean runs are deterministic at any thread
// count, so the comparison is exact. Under the race detector, which
// checks the capture's reads of the waiting peers' state, the programs
// with locks or many episodes resume from their middle episode only, at
// 2 threads (waiters spin) and 32 (waiters park).
func TestResumeMatchesFromStart(t *testing.T) {
	mods := map[string]*ir.Module{"rnd-locks": compileViaLower(t, resumeProg)}
	names := append(splash.Names(), "rnd-locks")
	for _, name := range splash.Names() {
		mods[name] = loadKernel(t, name)
	}
	for _, name := range names {
		if raceEnabled && !raceProgs[name] {
			continue
		}
		mod := mods[name]
		plans := analyzeModule(t, mod)
		for _, threads := range []int{2, 4, 32} {
			if raceEnabled && threads == 4 {
				continue
			}
			opts := Options{Threads: threads, Mode: MonitorActive, Plans: plans, Seed: 7}
			want := mustRun(t, mod, opts)
			got, snaps := captured(t, mod, opts)
			sameResumed(t, name, threads, -1, got, want)
			if len(snaps) == 0 {
				t.Errorf("%s at %d threads: no episode captured", name, threads)
			}
			for i, s := range snaps {
				if i > 0 && s.Episode() <= snaps[i-1].Episode() {
					t.Errorf("%s at %d threads: episodes out of order", name, threads)
				}
				if raceEnabled && i != len(snaps)/2 {
					continue
				}
				before := cloneSnapshot(s)
				opts.Resume = s
				sameResumed(t, name, threads, s.Episode(), mustRun(t, mod, opts), want)
				if !reflect.DeepEqual(s, before) {
					t.Fatalf("%s at %d threads: resuming changed the snapshot of episode %d", name, threads, s.Episode())
				}
			}
		}
	}
}

func sameResumed(t *testing.T, name string, threads, episode int, got, want *Result) {
	t.Helper()
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"Output", got.Output, want.Output},
		{"SimTimes", got.SimTimes, want.SimTimes},
		{"BranchCounts", got.BranchCounts, want.BranchCounts},
		{"EventCounts", got.EventCounts, want.EventCounts},
		{"Traps", got.Traps, want.Traps},
		{"Violations", got.Violations, want.Violations},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s at %d threads, resumed at episode %d: %s differs from the run from the start", name, threads, episode, c.what)
		}
	}
}

func cloneSnapshot(s *Snapshot) *Snapshot {
	c := *s
	c.mem = append([]Value(nil), s.mem...)
	c.setupOut = append([]Value(nil), s.setupOut...)
	c.threads = append([]threadSnap(nil), s.threads...)
	for i, ts := range c.threads {
		c.threads[i].regs = append([]Value(nil), ts.regs...)
		c.threads[i].loopStack = append([]uint64(nil), ts.loopStack...)
		c.threads[i].loopKeys = append([]uint64(nil), ts.loopKeys...)
		c.threads[i].output = append([]Value(nil), ts.output...)
	}
	return &c
}

// TestCaptureSkipsDeepOrLockedEpisodes: an episode is captured only when
// every thread waits in slave() itself holding no lock.
func TestCaptureSkipsDeepOrLockedEpisodes(t *testing.T) {
	mod := compileViaLower(t, `
global int x;
func void sync() { barrier(); }
func void slave() {
	barrier();
	sync();
	lock(tid());
	barrier();
	unlock(tid());
	barrier();
	x = x + 1;
}`)
	_, snaps := captured(t, mod, Options{Threads: 2})
	// Episode 1 is in sync(); at episode 2 each thread holds a lock.
	if got := episodes(snaps); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("captured episodes %v, want [0 3]", got)
	}
}

// captured runs mod with opts and returns the snapshots the run took.
func captured(t *testing.T, mod *ir.Module, opts Options) (*Result, []*Snapshot) {
	t.Helper()
	var snaps []*Snapshot
	opts.Capture = func(e Episode) { snaps = append(snaps, e.Snapshot()) }
	return mustRun(t, mod, opts), snaps
}

func episodes(snaps []*Snapshot) []int {
	var eps []int
	for _, s := range snaps {
		eps = append(eps, s.Episode())
	}
	return eps
}

// TestResumeRejectsForeignSnapshot: a snapshot resumes only runs of its
// own program at its own thread count.
func TestResumeRejectsForeignSnapshot(t *testing.T) {
	fft, radix := loadKernel(t, "fft"), loadKernel(t, "radix")
	_, snaps := captured(t, fft, Options{Threads: 2})
	s := snaps[0]
	for _, c := range []struct {
		name    string
		mod     *ir.Module
		threads int
	}{{"radix", radix, 2}, {"fft", fft, 4}} {
		if _, err := Run(c.mod, Options{Threads: c.threads, Resume: s}); !errors.Is(err, ErrResume) {
			t.Errorf("resume on %s at %d threads: err = %v, want ErrResume", c.name, c.threads, err)
		}
	}
}
