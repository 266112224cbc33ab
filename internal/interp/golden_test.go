package interp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/ir"
	"blockwatch/internal/lang/langtest"
	"blockwatch/internal/lower"
	"blockwatch/internal/monitor"
	"blockwatch/internal/splash"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current interpreter")

const goldenPath = "testdata/golden.txt"

// streamHash is a test EventStream: it folds each thread's ordered event
// stream, control markers included, into one FNV-1a hash per thread.
type streamHash struct{ h []uint64 }

func (s *streamHash) fold(slot int, ev monitor.Event) {
	h := s.h[slot]
	for _, w := range []uint64{uint64(ev.Kind), b2u(ev.Taken), uint64(ev.Thread), uint64(ev.BranchID), ev.Key1, ev.Key2, ev.Sig} {
		h = (h ^ w) * 0x100000001b3
	}
	s.h[slot] = h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (s *streamHash) StreamEvents(slot int, evs []monitor.Event) error {
	for _, ev := range evs {
		s.fold(slot, ev)
	}
	return nil
}

func (s *streamHash) StreamControl(slot int, ev monitor.Event) error {
	s.fold(slot, ev)
	return nil
}

// hashSink returns a sink that hashes the run's event streams instead of
// checking them.
func hashSink(t *testing.T, threads int) (monitor.Sink, *streamHash) {
	t.Helper()
	s := &streamHash{h: make([]uint64, threads)}
	for i := range s.h {
		s.h[i] = 0xcbf29ce484222325
	}
	r, err := monitor.NewRelay(monitor.RelayConfig{NumThreads: threads, Stream: s})
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

// goldenInjector fires one fault at thread tid's seq-th branch: a flip
// of the outcome, or a bit flip in the first corruptible condition
// operand. hit names the operand kind the corruption landed on.
type goldenInjector struct {
	tid     int
	seq     uint64
	corrupt bool
	bit     uint
	hit     string
}

func (g *goldenInjector) BeforeBranch(t *interp.Thread, br *ir.Instr) bool {
	if t.Tid() != g.tid || t.BranchSeq() != g.seq {
		return false
	}
	if !g.corrupt {
		return true
	}
	for _, op := range t.CondOperands(br) {
		before := t.ReadValue(op)
		if t.CorruptBit(op, g.bit) {
			g.hit = fmt.Sprintf("%T:%#x->%#x", op, before, t.ReadValue(op))
			return false
		}
	}
	return false
}

// digest renders everything observable about a run.
func digest(res *interp.Result, streams *streamHash) string {
	var b strings.Builder
	fmt.Fprintf(&b, "out=%x\n", res.Output)
	fmt.Fprintf(&b, "sim=%v span=%d\n", res.SimTimes, res.SimTime)
	fmt.Fprintf(&b, "branches=%v events=%v\n", res.BranchCounts, res.EventCounts)
	for i, tr := range res.Traps {
		if tr != nil {
			fmt.Fprintf(&b, "trap%d=%v\n", i, tr)
		}
	}
	fmt.Fprintf(&b, "detected=%t\n", res.Detected)
	if streams != nil {
		fmt.Fprintf(&b, "streams=%x\n", streams.h)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:8])
}

// trapText summarizes a run's traps for the golden file.
func trapText(res *interp.Result) string {
	var parts []string
	for _, tr := range res.Traps {
		if tr != nil {
			parts = append(parts, tr.Error())
		}
	}
	return strings.Join(parts, "; ")
}

type golden struct {
	t     *testing.T
	lines []string
}

func (g *golden) add(name string, res *interp.Result, streams *streamHash, extra ...string) {
	line := name + " " + digest(res, streams)
	if tt := trapText(res); tt != "" {
		extra = append(extra, "traps: "+tt)
	}
	for _, e := range extra {
		line += " | " + e
	}
	g.lines = append(g.lines, line)
}

func (g *golden) run(name string, mod *ir.Module, opts interp.Options) {
	g.t.Helper()
	res, err := interp.Run(mod, opts)
	if err != nil {
		g.t.Fatalf("%s: %v", name, err)
	}
	g.add(name, res, nil)
}

// runHashed runs mod with the monitor active through a hashing sink,
// with inj as the fault injector when it is not nil.
func (g *golden) runHashed(name string, mod *ir.Module, opts interp.Options, plans map[int]*core.CheckPlan, inj *goldenInjector) {
	g.t.Helper()
	sink, streams := hashSink(g.t, opts.Threads)
	opts.Mode, opts.Plans, opts.Sink = interp.MonitorActive, plans, sink
	if inj != nil {
		opts.Fault = inj
	}
	res, err := interp.Run(mod, opts)
	if err != nil {
		g.t.Fatalf("%s: %v", name, err)
	}
	var extra []string
	if inj != nil {
		extra = append(extra, "hit="+inj.hit)
	}
	g.add(name, res, streams, extra...)
}

func plansOf(t *testing.T, mod *ir.Module) map[int]*core.CheckPlan {
	t.Helper()
	a, err := core.Analyze(mod, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a.Plans
}

func compileSrc(t *testing.T, name, src string) *ir.Module {
	t.Helper()
	mod, err := lower.Compile(src, name)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return mod
}

const goldenParamProg = `
global int n;
func void setup() { n = 6; }
func int pick(int k, int lim) {
	int s = 0;
	if (k > lim) {
		s = k * 2;
	} else {
		s = k + 100;
	}
	return s;
}
func void slave() {
	int i;
	for (i = 0; i < n; i = i + 1) {
		output(pick(i + tid(), 3));
	}
}`

var goldenTraps = []struct{ name, src string }{
	{"oob", `
global int a[4];
func void slave() {
	int i;
	for (i = 0; i < 10; i = i + 1) {
		a[i] = i;
	}
}`},
	{"divzero", `
func void slave() {
	int i;
	int s = 0;
	for (i = 3; i > -2; i = i - 1) {
		s = s + 12 / i;
	}
	output(s);
}`},
	{"remzero", `
func void slave() {
	int d = tid() - tid();
	output(7 % d);
}`},
	{"steplimit", `
func void slave() {
	int i = 0;
	while (i >= 0) {
		i = i + 1;
	}
}`},
	{"stackoverflow", `
func int down(int n, float x) {
	return down(n + 1, x * 1.5) + 1;
}
func void slave() {
	output(down(0, 1.0));
}`},
}

// TestGoldenDigest pins everything the interpreter makes observable —
// outputs, simulated clocks, branch and event counts, traps with their
// messages, the monitor's verdict and each thread's event stream — for
// the bundled kernels, fault-hook runs, trapping programs and generated
// programs, against digests recorded from the reference interpreter.
// Run with -update to rewrite testdata/golden.txt after an intentional
// change of behaviour.
func TestGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest runs every kernel at up to 8 threads")
	}
	g := &golden{t: t}

	for _, name := range splash.Names() {
		mod, err := splash.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		plans := plansOf(t, mod)
		for _, threads := range []int{1, 2, 4, 8} {
			for _, seed := range []uint64{1, 23} {
				opts := interp.Options{Threads: threads, Seed: seed}
				id := fmt.Sprintf("kernel/%s/t%d/s%d", name, threads, seed)
				g.run(id+"/off", mod, opts)
				g.runHashed(id+"/active", mod, opts, plans, nil)
			}
		}
		// Faults in a single-thread run (a multi-thread faulty run may
		// race on shared memory, so its clocks depend on the schedule):
		// outcome flips and condition-operand bit flips.
		for _, seq := range []uint64{3, 40, 400} {
			for _, corrupt := range []bool{false, true} {
				g.runHashed(fmt.Sprintf("fault/%s/seq%d/corrupt=%t", name, seq, corrupt), mod,
					interp.Options{Threads: 1, StepLimit: 20_000_000}, plans,
					&goldenInjector{tid: 0, seq: seq, corrupt: corrupt, bit: 5})
			}
		}
	}

	// Bit flips that land on an instruction operand and on a parameter.
	pmod := compileSrc(t, "param", goldenParamProg)
	pplans := plansOf(t, pmod)
	for seq := uint64(1); seq <= 8; seq++ {
		g.runHashed(fmt.Sprintf("corrupt/param/seq%d", seq), pmod, interp.Options{Threads: 2}, pplans,
			&goldenInjector{tid: 0, seq: seq, corrupt: true, bit: 2})
	}

	// The branch trace of a single-thread run.
	var trace strings.Builder
	res, err := interp.Run(pmod, interp.Options{Threads: 1, Trace: &trace})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(trace.String()))
	g.add("trace/param", res, nil, "trace="+hex.EncodeToString(sum[:8]))

	for _, tc := range goldenTraps {
		mod := compileSrc(t, tc.name, tc.src)
		for _, threads := range []int{1, 3} {
			g.run(fmt.Sprintf("trap/%s/t%d", tc.name, threads), mod,
				interp.Options{Threads: threads, StepLimit: 100_000})
		}
	}

	for seed := int64(0); seed < 100; seed++ {
		mod := compileSrc(t, "gen", langtest.Generate(seed, langtest.Options{}))
		opts := interp.Options{Threads: 1 + int(seed%4), Seed: uint64(seed), StepLimit: 5_000_000}
		id := fmt.Sprintf("gen/%d/t%d", seed, opts.Threads)
		g.run(id+"/off", mod, opts)
		g.runHashed(id+"/active", mod, opts, plansOf(t, mod), nil)
	}

	got := strings.Join(g.lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(g.lines) {
		t.Fatalf("%d golden cases, want %d", len(g.lines), len(want))
	}
	bad := 0
	for i, line := range g.lines {
		if line != want[i] {
			bad++
			t.Errorf("case %d:\n got %s\nwant %s", i, line, want[i])
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d golden cases differ", bad, len(want))
	}
}
