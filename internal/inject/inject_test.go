package inject

import (
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/lower"
)

// testProgram has a shared loop whose trip count directly determines the
// output, so branch faults readily cause SDCs without protection.
const testProgram = `
global int n;
global int acc[8];

func void setup() {
	n = 64;
}

func void slave() {
	int me = tid();
	int i;
	int s = 0;
	for (i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) {
			s = s + i;
		}
	}
	acc[me] = s;
	barrier();
	if (me == 0) {
		int j;
		int total = 0;
		for (j = 0; j < nthreads(); j = j + 1) {
			total = total + acc[j];
		}
		output(total);
	}
}
`

func compileTest(t *testing.T) (*ir.Module, map[int]*core.CheckPlan) {
	t.Helper()
	m, err := lower.Compile(testProgram, "inj")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, a.Plans
}

func TestCampaignBaselineHasSDCs(t *testing.T) {
	m, _ := compileTest(t)
	c := Campaign{Module: m, Threads: 4, Faults: 120, Type: BranchFlip, Seed: 1}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Activated == 0 {
		t.Fatal("no faults activated")
	}
	if res.Tally.Counts[SDC] == 0 {
		t.Fatal("unprotected program produced no SDCs — workload too robust for the test")
	}
	if res.Tally.Counts[Detected] != 0 {
		t.Fatal("baseline campaign reported detections without a monitor")
	}
	if cov := res.Tally.Coverage(); cov >= 1 {
		t.Fatalf("baseline coverage = %v, want < 1", cov)
	}
}

func TestCampaignProtectedImprovesCoverage(t *testing.T) {
	m, plans := compileTest(t)
	base := Campaign{Module: m, Threads: 4, Faults: 120, Type: BranchFlip, Seed: 1}
	prot := base
	prot.Plans = plans
	rb, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	rp, err := prot.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rp.Tally.Counts[Detected] == 0 {
		t.Fatal("protected campaign detected nothing")
	}
	if rp.Tally.Coverage() <= rb.Tally.Coverage() {
		t.Fatalf("protected coverage %.3f not above baseline %.3f",
			rp.Tally.Coverage(), rb.Tally.Coverage())
	}
}

func TestCampaignCondBitFaults(t *testing.T) {
	m, plans := compileTest(t)
	c := Campaign{Module: m, Plans: plans, Threads: 4, Faults: 120, Type: CondBit, Seed: 7}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Activated == 0 {
		t.Fatal("no faults activated")
	}
	// Condition faults may be benign (flipped bit doesn't change the
	// comparison) — the paper relies on this distinction.
	if res.Tally.Counts[Benign] == 0 {
		t.Error("no benign condition faults — unexpected for bit flips")
	}
}

func TestCampaignDeterministicWithSeed(t *testing.T) {
	m, plans := compileTest(t)
	c := Campaign{Module: m, Plans: plans, Threads: 2, Faults: 40, Type: BranchFlip, Seed: 42}
	r1, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Outcome{Benign, Detected, Crash, Hang, SDC, NotActivated} {
		if r1.Tally.Counts[o] != r2.Tally.Counts[o] {
			t.Fatalf("outcome %s differs across identical campaigns: %d vs %d",
				o, r1.Tally.Counts[o], r2.Tally.Counts[o])
		}
	}
}

func TestSingleFaultInjectorTargetsExactBranch(t *testing.T) {
	m, _ := compileTest(t)
	golden, err := interp.Run(m, interp.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Target the last branch of thread 1.
	ij := NewSingle(Fault{Type: BranchFlip, Thread: 1, Seq: golden.BranchCounts[1]})
	_, err = interp.Run(m, interp.Options{Threads: 2, Fault: ij})
	if err != nil {
		t.Fatal(err)
	}
	if !ij.Activated() {
		t.Fatal("fault at last branch not activated")
	}
	// Out-of-range target: never activates.
	ij2 := NewSingle(Fault{Type: BranchFlip, Thread: 1, Seq: golden.BranchCounts[1] * 10})
	if _, err := interp.Run(m, interp.Options{Threads: 2, Fault: ij2}); err != nil {
		t.Fatal(err)
	}
	if ij2.Activated() {
		t.Fatal("out-of-range fault reported activation")
	}
}

func TestTallyCoverageMath(t *testing.T) {
	tl := Tally{Activated: 100, Counts: map[Outcome]int{SDC: 15, Benign: 60, Detected: 25}}
	if got := tl.Coverage(); got != 0.85 {
		t.Errorf("Coverage = %v, want 0.85", got)
	}
	if got := tl.SDCFraction(); got != 0.15 {
		t.Errorf("SDCFraction = %v, want 0.15", got)
	}
	empty := Tally{}
	if empty.Coverage() != 1 || empty.SDCFraction() != 0 {
		t.Error("empty tally must have coverage 1, SDC 0")
	}
}

func TestCampaignErrors(t *testing.T) {
	m, _ := compileTest(t)
	if _, err := (Campaign{Module: m, Threads: 2, Faults: 0, Type: BranchFlip}).Run(); err == nil {
		t.Error("want error for zero faults")
	}
}

func TestOutcomeStrings(t *testing.T) {
	for o, want := range map[Outcome]string{
		NotActivated: "not-activated", Benign: "benign", Detected: "detected",
		Crash: "crash", Hang: "hang", SDC: "sdc",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if BranchFlip.String() != "branch-flip" || CondBit.String() != "branch-condition" {
		t.Error("fault type names wrong")
	}
}
