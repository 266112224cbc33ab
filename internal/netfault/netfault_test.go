package netfault

import (
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/inject"
	"blockwatch/internal/ir"
	"blockwatch/internal/lower"
)

// testProgram mirrors the inject package's fixture: a shared loop whose
// trip count determines the output, busy enough to stream many frames.
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
	m, err := lower.Compile(testProgram, "nf")
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m, a.Plans
}

// TestCampaignSelfHealing: the short-mode acceptance gate. A campaign
// of drops, stalls, partial writes, and bit-flips against a spooling
// client must finish with zero contract violations: no hangs, no
// crashes, no lost verdicts.
func TestCampaignSelfHealing(t *testing.T) {
	m, plans := compileTest(t)
	faults := 24
	if testing.Short() {
		faults = 8
	}
	c := Campaign{
		Module:  m,
		Plans:   plans,
		Threads: 4,
		Faults:  faults,
		Seed:    7,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected != faults {
		t.Fatalf("injected = %d, want %d", res.Injected, faults)
	}
	if v := res.ContractViolations(); v != 0 {
		t.Fatalf("contract violations = %d (counts %v)", v, res.Counts)
	}
	if res.Fired == 0 {
		t.Fatal("no network fault ever fired")
	}
	t.Logf("net-fault campaign: fired %d/%d, reconnects %d, counts %v (%.1fs)",
		res.Fired, res.Injected, res.Reconnects, res.Counts, res.Elapsed.Seconds())
}

// TestCampaignWithProgramFault: transport faults under detection
// traffic — the program-level fault's verdict must survive the network
// faults (recovered live or sealed), never be lost.
func TestCampaignWithProgramFault(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, plans := compileTest(t)
	pf := &inject.Fault{Type: inject.BranchFlip, Thread: 1, Seq: 30}
	c := Campaign{
		Module:       m,
		Plans:        plans,
		Threads:      4,
		Faults:       12,
		Seed:         11,
		ProgramFault: pf,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := res.ContractViolations(); v != 0 {
		t.Fatalf("contract violations = %d (counts %v)", v, res.Counts)
	}
}

// TestCampaignUnixTransport: the campaign runs over a unix socket too.
func TestCampaignUnixTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m, plans := compileTest(t)
	c := Campaign{
		Module:    m,
		Plans:     plans,
		Threads:   2,
		Faults:    8,
		Seed:      3,
		Transport: "unix",
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v := res.ContractViolations(); v != 0 {
		t.Fatalf("contract violations = %d (counts %v)", v, res.Counts)
	}
}

// TestCampaignSpoolDisabled: with spooling off the client is merely
// fail-open — verdicts may be lost (classified coverage-lost), but
// hangs and crashes are still forbidden.
func TestCampaignSpoolDisabled(t *testing.T) {
	m, plans := compileTest(t)
	faults := 12
	if testing.Short() {
		faults = 6
	}
	c := Campaign{
		Module:       m,
		Plans:        plans,
		Threads:      4,
		Faults:       faults,
		Seed:         5,
		DisableSpool: true,
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Counts[Hang] + res.Counts[Crash]; n != 0 {
		t.Fatalf("hangs/crashes = %d (counts %v)", n, res.Counts)
	}
}

// TestCampaignValidation: bad configs are rejected up front.
func TestCampaignValidation(t *testing.T) {
	m, plans := compileTest(t)
	if _, err := (Campaign{Module: m, Plans: plans, Threads: 2}).Run(); err == nil {
		t.Error("zero faults accepted")
	}
	if _, err := (Campaign{Module: m, Threads: 2, Faults: 1}).Run(); err == nil {
		t.Error("nil plans accepted")
	}
	if _, err := (Campaign{Module: m, Plans: plans, Threads: 2, Faults: 1, Transport: "carrier-pigeon"}).Run(); err == nil {
		t.Error("bad transport accepted")
	}
}

// TestOutcomeStrings keeps the report names stable and distinct.
func TestOutcomeStrings(t *testing.T) {
	outs := []Outcome{NotActivated, Absorbed, Recovered, Sealed,
		Divergent, CoverageLost, VerdictLost, Hang, Crash}
	seen := map[string]bool{}
	for _, o := range outs {
		s := o.String()
		if s == "" || seen[s] {
			t.Errorf("outcome %d: bad or duplicate name %q", int(o), s)
		}
		seen[s] = true
	}
}
