package inject

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"blockwatch/internal/interp"
)

// TestCampaignWorkerCountInvariance is the determinism regression test for
// the parallel campaign engine: the same campaign run with Workers: 1 and
// Workers: 8 must produce identical CampaignResult tallies (and the same
// first-detection report) for several seeds and both fault types.
func TestCampaignWorkerCountInvariance(t *testing.T) {
	m, plans := compileTest(t)
	for _, ft := range []FaultType{BranchFlip, CondBit} {
		for _, seed := range []int64{1, 7, 42} {
			c := Campaign{
				Module: m, Plans: plans, Threads: 4, Faults: 60,
				Type: ft, Seed: seed, Workers: 1,
			}
			seq, err := c.Run()
			if err != nil {
				t.Fatalf("%s seed %d sequential: %v", ft, seed, err)
			}
			c.Workers = 8
			par, err := c.Run()
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", ft, seed, err)
			}
			if !reflect.DeepEqual(seq.Tally, par.Tally) {
				t.Errorf("%s seed %d: tally differs across worker counts:\nworkers=1: %+v\nworkers=8: %+v",
					ft, seed, seq.Tally, par.Tally)
			}
			if seq.FirstDetected != par.FirstDetected ||
				seq.FirstDetectedFault != par.FirstDetectedFault {
				t.Errorf("%s seed %d: first detection differs: (%d, %+v) vs (%d, %+v)",
					ft, seed, seq.FirstDetected, seq.FirstDetectedFault,
					par.FirstDetected, par.FirstDetectedFault)
			}
			if seq.GoldenTime != par.GoldenTime {
				t.Errorf("%s seed %d: golden time differs", ft, seed)
			}
		}
	}
}

// TestCampaignDefaultWorkersMatchesSequential covers the Workers: 0
// default (all cores).
func TestCampaignDefaultWorkersMatchesSequential(t *testing.T) {
	m, plans := compileTest(t)
	c := Campaign{Module: m, Plans: plans, Threads: 2, Faults: 40, Type: BranchFlip, Seed: 3}
	c.Workers = 1
	seq, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c.Workers = 0
	def, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Tally, def.Tally) {
		t.Fatalf("default worker count changes tallies: %+v vs %+v", seq.Tally, def.Tally)
	}
}

// TestCampaignWorkers4MatchesSequential: four workers run monitors at
// once while the process keeps one spare monitor table; a protected
// campaign must still reach the sequential campaign's verdicts exactly
// (run it under -race to also catch two live monitors sharing a table).
func TestCampaignWorkers4MatchesSequential(t *testing.T) {
	m, plans := compileTest(t)
	c := Campaign{Module: m, Plans: plans, Threads: 4, Faults: 60, Type: BranchFlip, Seed: 11, Workers: 1}
	seq, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if seq.Tally.Counts[Detected] == 0 {
		t.Fatal("no fault was detected: the comparison would be vacuous")
	}
	c.Workers = 4
	par, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Tally, par.Tally) || seq.FirstDetected != par.FirstDetected {
		t.Fatalf("Workers: 4 differs from sequential:\n seq: %+v (first %d)\n par: %+v (first %d)",
			seq.Tally, seq.FirstDetected, par.Tally, par.FirstDetected)
	}
}

// TestCampaignProgressSnapshots checks the observability contract: the
// callback fires, snapshots are monotone in Injected, and the final
// snapshot agrees with the returned tally.
func TestCampaignProgressSnapshots(t *testing.T) {
	m, plans := compileTest(t)
	var (
		mu    sync.Mutex
		snaps []CampaignProgress
	)
	c := Campaign{
		Module: m, Plans: plans, Threads: 2, Faults: 30,
		Type: BranchFlip, Seed: 9, Workers: 4, ProgressEvery: 5,
		Progress: func(p CampaignProgress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		},
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("progress callback never fired")
	}
	prev := 0
	for i, s := range snaps {
		if s.Total != 30 {
			t.Errorf("snapshot %d: Total = %d, want 30", i, s.Total)
		}
		if s.Injected <= prev {
			t.Errorf("snapshot %d: Injected %d not monotone (prev %d)", i, s.Injected, prev)
		}
		if s.Activated > s.Injected {
			t.Errorf("snapshot %d: Activated %d > Injected %d", i, s.Activated, s.Injected)
		}
		prev = s.Injected
	}
	last := snaps[len(snaps)-1]
	if last.Injected != 30 {
		t.Errorf("final snapshot Injected = %d, want 30", last.Injected)
	}
	if last.Activated != res.Tally.Activated {
		t.Errorf("final snapshot Activated = %d, tally says %d", last.Activated, res.Tally.Activated)
	}
	for out, n := range res.Tally.Counts {
		if last.Counts[out] != n {
			t.Errorf("final snapshot Counts[%s] = %d, tally says %d", out, last.Counts[out], n)
		}
	}
}

// TestCampaignLatencyAggregates checks that every injected run is
// accounted for in the per-outcome latency aggregates.
func TestCampaignLatencyAggregates(t *testing.T) {
	m, _ := compileTest(t)
	c := Campaign{Module: m, Threads: 2, Faults: 25, Type: BranchFlip, Seed: 2, Workers: 4}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Error("Elapsed not recorded")
	}
	total := 0
	for out, ls := range res.Latency {
		if ls.Count != res.Tally.Counts[out] {
			t.Errorf("latency count for %s = %d, tally says %d", out, ls.Count, res.Tally.Counts[out])
		}
		if ls.Min > ls.Max || ls.Total < ls.Max {
			t.Errorf("inconsistent latency stats for %s: %+v", out, ls)
		}
		if ls.Mean() > ls.Max || ls.Mean() < ls.Min {
			t.Errorf("mean outside [min, max] for %s: %+v", out, ls)
		}
		total += ls.Count
	}
	if total != res.Tally.Injected {
		t.Errorf("latency aggregates cover %d runs, injected %d", total, res.Tally.Injected)
	}
}

// TestCampaignRunnerErrorDeterministic: when multiple runs fail, RunWith
// must report the error of the lowest fault index regardless of worker
// count or completion order.
func TestCampaignRunnerErrorDeterministic(t *testing.T) {
	m, _ := compileTest(t)
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		c := Campaign{Module: m, Threads: 2, Faults: 50, Type: BranchFlip, Seed: 1, Workers: workers}
		var calls atomic64
		_, err := c.RunWith(func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, error) {
			n := calls.inc()
			// Fail on a spread of calls; index order of failures is what
			// the engine must normalize.
			if n%7 == 0 {
				return 0, sentinel
			}
			return Benign, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v does not wrap sentinel", workers, err)
		}
	}
}

// atomic64 is a tiny helper counter for runner-side call counting.
type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) inc() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	return a.n
}

// TestCampaignRunnerErrorIndexStable pins the reported index itself: a
// runner that fails only at specific fault indices must surface the
// lowest one under any worker count.
func TestCampaignRunnerErrorIndexStable(t *testing.T) {
	m, _ := compileTest(t)
	sentinel := errors.New("boom")
	failAt := map[uint64]bool{} // keyed by fault Seq — deterministic per fault
	// Pick two faults from the sampled list to fail on, via a dry pass.
	c := Campaign{Module: m, Threads: 2, Faults: 30, Type: BranchFlip, Seed: 4, Workers: 1}
	var seqs []uint64
	if _, err := c.RunWith(func(f Fault, _ uint64, _ []interp.Value) (Outcome, error) {
		seqs = append(seqs, f.Seq)
		return Benign, nil
	}); err != nil {
		t.Fatal(err)
	}
	failAt[seqs[11]] = true
	failAt[seqs[23]] = true

	var want error
	for _, workers := range []int{1, 8} {
		c.Workers = workers
		_, err := c.RunWith(func(f Fault, _ uint64, _ []interp.Value) (Outcome, error) {
			if failAt[f.Seq] {
				return 0, sentinel
			}
			return Benign, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		if want == nil {
			want = err
		} else if err.Error() != want.Error() {
			t.Fatalf("error differs across worker counts: %q vs %q", err, want)
		}
	}
}

// TestCampaignWorkers4FreshModule: a campaign over a freshly compiled
// module — its golden run decodes the module, then four workers execute
// the decoded program at once — reaches the sequential campaign's
// verdicts exactly. Run it under -race; interp's TestConcurrentFirstRuns
// covers runs that race to decode.
func TestCampaignWorkers4FreshModule(t *testing.T) {
	m, plans := compileTest(t)
	seq, err := Campaign{Module: m, Plans: plans, Threads: 2, Faults: 40, Type: CondBit, Seed: 5, Workers: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, plans := compileTest(t)
	par, err := Campaign{Module: fresh, Plans: plans, Threads: 2, Faults: 40, Type: CondBit, Seed: 5, Workers: 4}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Tally, par.Tally) || seq.FirstDetected != par.FirstDetected {
		t.Fatalf("Workers: 4 on a fresh module differs from sequential:\n seq: %+v\n par: %+v", seq.Tally, par.Tally)
	}
}
