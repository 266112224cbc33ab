package inject

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/lower"
	"blockwatch/internal/monitor"
	"blockwatch/internal/splash"
)

// fromStartTries bounds the runs from the top that may reproduce a
// resumed run's verdict.
const fromStartTries = 8

// runEnd is what a campaign compares of a faulty run.
type runEnd struct {
	out        Outcome
	violations []monitor.Violation
	output     []interp.Value
	simTime    int64
}

// runEnd runs fault f from snapshot from (nil = the top) without the
// stop at detection, so the whole run can be compared.
func (c Campaign) runEnd(f Fault, from *interp.Snapshot, p *plan) runEnd {
	ij := NewSingle(f)
	opts := c.faultyOpts()
	opts.Fault, opts.StepLimit, opts.Resume = ij, p.stepLimit, from
	res, err := c.run(opts, nil, nil)
	if err != nil {
		return runEnd{out: Crash}
	}
	e := runEnd{classify(res, p.golden.Output, extrasFrom(res, p.golden.Output)), res.Violations, res.Output, res.SimTime}
	if !ij.Activated() {
		e.out = NotActivated
	}
	return e
}

// flagged strips the reasons off violations, leaving the instances.
func flagged(vs []monitor.Violation) []monitor.Violation {
	out := make([]monitor.Violation, len(vs))
	for i, v := range vs {
		out[i] = monitor.Violation{BranchID: v.BranchID, Key1: v.Key1, Key2: v.Key2}
	}
	return out
}

// TestCampaignResumeKeepsOutcomes: a faulty run started from a clean
// run's snapshot ends as it ends from the top, for branch flips and
// condition bits on every kernel. At one thread a run is deterministic,
// and a 40-fault list must match exactly: outcome, violations, output
// and simulated time. At two or more threads a faulty run can depend on
// the Go scheduler (a thread sent onto a peer's words, a crash its peers
// notice at different points), so its runs from the top need not agree
// on output or clock, nor on the threads a violation's reason names
// (CheckReports names them in thread order, but which threads reported
// an instance before its generation closed, and what, can differ);
// there every fault of the bwperf campaign lists (two threads) and of a
// 40-fault list at four threads must end with an outcome and flagged
// instances that some run from the top gives, and on each list where a
// fault resumes Campaign.Run, which also stops runs at their first
// detection and shares each snapshot between two workers, must tally as
// RunWith's runs from the top. (The lists where no fault resumes, fmm's
// at four threads, are left out of that check: their tallies from the
// top alone move with GOMAXPROCS.) Under the race detector only the
// tally check runs, on the two-thread branch-flip lists of the kernels
// that take locks.
func TestCampaignResumeKeepsOutcomes(t *testing.T) {
	resumed, retried := 0, 0
	for k, name := range splash.Names() {
		if raceEnabled && name != "fft" && name != "water-nsquared" {
			continue
		}
		for _, ft := range []FaultType{BranchFlip, CondBit} {
			c := kernelCampaign(t, k, name)
			c.Type = ft
			one, four := c, c
			one.Threads, one.Faults = 1, 40
			four.Threads, four.Faults = 4, 40
			lists := []Campaign{one, c, four}
			if raceEnabled {
				if ft != BranchFlip {
					continue
				}
				lists = lists[1:2]
			}
			for _, c := range lists {
				what := fmt.Sprintf("%s %s at %d threads", name, ft, c.Threads)
				p, err := c.plan(true)
				if err != nil {
					t.Fatal(err)
				}
				listResumed := 0
				for i, f := range p.faults {
					if p.from[i] == nil || raceEnabled {
						continue
					}
					listResumed++
					got := c.runEnd(f, p.from[i], p)
					if c.Threads == 1 {
						if want := c.runEnd(f, nil, p); !reflect.DeepEqual(got, want) {
							t.Errorf("%s fault %d %+v: resumed at episode %d the run ends %s (sim %d), from the start %s (sim %d)",
								what, i, f, p.from[i].Episode(), got.out, got.simTime, want.out, want.simTime)
						}
						continue
					}
					var tops []Outcome
					for try := 0; try < fromStartTries; try++ {
						want := c.runEnd(f, nil, p)
						if got.out == want.out && reflect.DeepEqual(flagged(got.violations), flagged(want.violations)) {
							break
						}
						tops = append(tops, want.out)
						retried++
					}
					if len(tops) == fromStartTries {
						t.Errorf("%s fault %d %+v: resumed at episode %d the run ends %s with %d violations; %d runs from the start end %v, none with those instances flagged",
							what, i, f, p.from[i].Episode(), got.out, len(got.violations), fromStartTries, tops)
					}
				}
				resumed += listResumed
				if c.Threads > 1 && (listResumed > 0 || raceEnabled) {
					sameTally(t, what, c)
				}
			}
		}
	}
	if resumed == 0 && !raceEnabled {
		t.Fatal("no fault started from a snapshot")
	}
	t.Logf("%d faults resumed; %d runs from the start repeated", resumed, retried)
}

// sameTally checks that c.Run tallies as RunWith's runs from the top.
func sameTally(t *testing.T, what string, c Campaign) {
	t.Helper()
	par := c
	par.Workers = 2
	got, err := par.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.RunWith(func(f Fault, stepLimit uint64, golden []interp.Value) (Outcome, error) {
		return c.runOne(f, golden, stepLimit), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Tally, want.Tally) || got.FirstDetected != want.FirstDetected {
		t.Errorf("%s: Run tallied %v (first detected %d), runs from the start %v (%d)",
			what, got.Tally.Counts, got.FirstDetected, want.Tally.Counts, want.FirstDetected)
	}
}

// earlyProgram branches on the thread ID before its first barrier and
// does most of its work after it.
const earlyProgram = `
global int n;
global int acc[8];

func void setup() {
	n = 64;
}

func void slave() {
	int me = tid();
	int i;
	int s = 0;
	if (me == 0) {
		s = 1;
	}
	barrier();
	for (i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) {
			s = s + i;
		}
	}
	acc[me] = s;
	barrier();
	if (me == 0) {
		output(acc[0] + acc[1]);
	}
}
`

// TestCampaignResumeFallsBack: when the protected clean run is flagged,
// every faulty run starts from the top. A plan doctored to demand that all
// threads take the thread-ID branch alike flags every clean run before
// its first barrier; a run resumed after that barrier would miss the
// flag, and its fault would not count as Detected.
func TestCampaignResumeFallsBack(t *testing.T) {
	m, err := lower.Compile(earlyProgram, "early")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doctored := map[int]*core.CheckPlan{}
	for id, p := range a.Plans {
		cp := *p
		if cp.Kind == core.CheckThreadID {
			cp.Kind = core.CheckUniform
		}
		doctored[id] = &cp
	}
	for _, tc := range []struct {
		name    string
		plans   map[int]*core.CheckPlan
		flagged bool
	}{{"analysed", a.Plans, false}, {"doctored", doctored, true}} {
		c := Campaign{Module: m, Plans: tc.plans, Threads: 2, Faults: 40, Type: BranchFlip, Seed: 3, Workers: 1}
		clean, err := c.run(c.faultyOpts(), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if clean.Detected != tc.flagged {
			t.Fatalf("%s plans: protected clean run flagged %v, want %v", tc.name, clean.Detected, tc.flagged)
		}
		p, err := c.plan(true)
		if err != nil {
			t.Fatal(err)
		}
		resumed := 0
		for _, from := range p.from {
			if from != nil {
				resumed++
			}
		}
		if tc.flagged && resumed > 0 {
			t.Errorf("%s plans: %d faults start from a snapshot of a flagged run", tc.name, resumed)
		}
		if !tc.flagged && resumed == 0 {
			t.Errorf("%s plans: no fault starts from a snapshot", tc.name)
		}
		sameTally(t, tc.name, c)
	}
}

// TestCampaignListTallies pins the tallies of the bwperf campaign lists
// (kernelCampaign: two threads, ten branch flips, seed 1000+k, one
// worker), whose runs Run resumes from barrier snapshots where it can.
// The tallies from the top were the same at GOMAXPROCS 1, 2 and 8, 20
// runs each, so they must not move at any processor count.
func TestCampaignListTallies(t *testing.T) {
	want := map[string]map[Outcome]int{
		"continuous-ocean":    {Detected: 10},
		"fft":                 {Detected: 9, SDC: 1},
		"fmm":                 {Detected: 2, SDC: 8},
		"noncontinuous-ocean": {Detected: 8, SDC: 1, Benign: 1},
		"radix":               {Detected: 7, SDC: 2, Benign: 1},
		"raytrace":            {SDC: 7, Benign: 3},
		"water-nsquared":      {Detected: 2, SDC: 2, Benign: 6},
	}
	for k, name := range splash.Names() {
		res, err := kernelCampaign(t, k, name).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(res.Tally.Counts, want[name]) {
			t.Errorf("%s: tallied %v, want %v", name, res.Tally.Counts, want[name])
		}
	}
}

// TestSnapshotRunStopsAtLastEpisode: the clean run resumePoints takes
// snapshots from aborts once it has taken the last episode it was asked
// for, and the snapshot it gives a fault is the one a run to the end
// gives.
func TestSnapshotRunStopsAtLastEpisode(t *testing.T) {
	k := slices.Index(splash.Names(), "continuous-ocean")
	c := kernelCampaign(t, k, "continuous-ocean")
	p, err := c.plan(true)
	if err != nil {
		t.Fatal(err)
	}
	first := -1
	for _, s := range p.from {
		if s != nil && (first < 0 || s.Episode() < first) {
			first = s.Episode()
		}
	}
	if first < 0 {
		t.Fatal("no fault resumes")
	}
	from, res, err := c.snapshotRun(map[int]bool{first: true}, p.faults)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || !stopped(res) || res.Clean() {
		t.Fatalf("snapshot run: detected %v, traps %v; want an abort, unflagged", res.Detected, res.Traps)
	}
	var ran, whole uint64
	for tid := range res.BranchCounts {
		ran += res.BranchCounts[tid]
		whole += p.golden.BranchCounts[tid]
	}
	if ran >= whole {
		t.Errorf("snapshot run executed %d branches, the whole run %d", ran, whole)
	}
	for i, s := range from {
		switch {
		case s != nil && s.Episode() != first:
			t.Errorf("fault %d: snapshot at episode %d, want %d", i, s.Episode(), first)
		case p.from[i] != nil && p.from[i].Episode() == first && !reflect.DeepEqual(s, p.from[i]):
			t.Errorf("fault %d: the stopped run's snapshot at episode %d differs from the whole run's", i, first)
		}
	}
}

// TestCampaignResumeMetrics: Campaign.Metrics counts the faulty runs
// resumed from a snapshot.
func TestCampaignResumeMetrics(t *testing.T) {
	k := slices.Index(splash.Names(), "continuous-ocean")
	c := kernelCampaign(t, k, "continuous-ocean")
	plain := c
	plain.Metrics = nil
	p, err := plain.plan(true)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, s := range p.from {
		if s != nil {
			want++
		}
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Metrics.Snapshot().Counter("bw_inject_resumed_total"); got != want || want == 0 {
		t.Errorf("bw_inject_resumed_total = %d, want %d (> 0)", got, want)
	}
}
