package interp

import (
	"reflect"
	"strings"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
	"blockwatch/internal/lower"
)

// recordingInjector captures the thread state passed to the hook.
type recordingInjector struct {
	hits     int
	seqs     []uint64
	tids     []int
	condVals [][]Value
	flipAt   uint64
	corrupt  bool
	bit      uint
}

func (r *recordingInjector) BeforeBranch(t *Thread, br *ir.Instr) bool {
	r.hits++
	r.seqs = append(r.seqs, t.BranchSeq())
	r.tids = append(r.tids, t.Tid())
	ops := t.CondOperands(br)
	vals := make([]Value, len(ops))
	for i, op := range ops {
		vals[i] = t.ReadValue(op)
	}
	r.condVals = append(r.condVals, vals)
	if r.corrupt && t.BranchSeq() == r.flipAt {
		for _, op := range ops {
			if t.CorruptBit(op, r.bit) {
				return false
			}
		}
	}
	return r.flipAt != 0 && !r.corrupt && t.BranchSeq() == r.flipAt
}

const faultProg = `
global int n;
func void setup() { n = 5; }
func void slave() {
	int i;
	int s = 0;
	for (i = 0; i < n; i = i + 1) {
		s = s + i;
	}
	output(s);
}`

func TestHookSeesEveryBranch(t *testing.T) {
	m := compile(t, faultProg)
	rec := &recordingInjector{}
	res, err := Run(m, Options{Threads: 1, Fault: rec})
	if err != nil {
		t.Fatal(err)
	}
	// 6 loop-header evaluations (5 taken + exit).
	if rec.hits != 6 {
		t.Fatalf("hook hits = %d, want 6", rec.hits)
	}
	for i, seq := range rec.seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d, want %d (BranchSeq counts the current branch)", i, seq, i+1)
		}
	}
	if got := AsInt(res.Output[0]); got != 10 {
		t.Fatalf("output = %d, want 10", got)
	}
}

func TestHookReadsCondOperands(t *testing.T) {
	m := compile(t, faultProg)
	rec := &recordingInjector{}
	if _, err := Run(m, Options{Threads: 1, Fault: rec}); err != nil {
		t.Fatal(err)
	}
	// At evaluation k (1-based), operands are (i=k-1, n=5).
	for i, vals := range rec.condVals {
		if len(vals) != 2 {
			t.Fatalf("cond operands = %d, want 2", len(vals))
		}
		if AsInt(vals[0]) != int64(i) || AsInt(vals[1]) != 5 {
			t.Fatalf("eval %d: operands (%d, %d), want (%d, 5)",
				i+1, AsInt(vals[0]), AsInt(vals[1]), i)
		}
	}
}

func TestFlipChangesOutput(t *testing.T) {
	m := compile(t, faultProg)
	// Flip the 3rd evaluation (i=2 < 5 → exit early): s = 0+1 = 1.
	rec := &recordingInjector{flipAt: 3}
	res, err := Run(m, Options{Threads: 1, Fault: rec})
	if err != nil {
		t.Fatal(err)
	}
	if got := AsInt(res.Output[0]); got != 1 {
		t.Fatalf("early-exit flip output = %d, want 1", got)
	}
}

func TestCorruptBitPersists(t *testing.T) {
	m := compile(t, faultProg)
	// Corrupt bit 4 (value 16) of the first operand (i, currently 1) at the
	// 2nd evaluation: i becomes 17, loop exits, and s keeps only iteration
	// 0's contribution... then s = 0. The essential assertion: output
	// differs from golden and the run stays clean (no trap).
	rec := &recordingInjector{flipAt: 2, corrupt: true, bit: 4}
	res, err := Run(m, Options{Threads: 1, Fault: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Clean() {
		t.Fatalf("corrupted run trapped: %v", res.Traps)
	}
	if AsInt(res.Output[0]) == 10 {
		t.Fatal("persistent corruption had no effect")
	}
}

func TestCorruptBitOnConstFails(t *testing.T) {
	m := compile(t, `func void slave() { if (true) { output(1); } }`)
	// The lowering folds constant-true if conditions only for loops, so
	// slave has a br on a bool const; CorruptBit must refuse it.
	var sawConst bool
	hook := hookFunc(func(th *Thread, br *ir.Instr) bool {
		for _, op := range th.CondOperands(br) {
			if _, ok := op.(*ir.Const); ok {
				if th.CorruptBit(op, 3) {
					t.Error("CorruptBit succeeded on a constant")
				}
				sawConst = true
			}
		}
		return false
	})
	if _, err := Run(m, Options{Threads: 1, Fault: hook}); err != nil {
		t.Fatal(err)
	}
	if !sawConst {
		t.Skip("no constant-condition branch reached")
	}
}

type hookFunc func(*Thread, *ir.Instr) bool

func (f hookFunc) BeforeBranch(t *Thread, br *ir.Instr) bool { return f(t, br) }

func TestFaultHookNotCalledInSetup(t *testing.T) {
	m := compile(t, `
global int n;
func void setup() {
	int i;
	for (i = 0; i < 3; i = i + 1) {
		n = n + 1;
	}
}
func void slave() { output(n); }`)
	rec := &recordingInjector{}
	if _, err := Run(m, Options{Threads: 2, Fault: rec}); err != nil {
		t.Fatal(err)
	}
	for _, tid := range rec.tids {
		if tid < 0 {
			t.Fatal("fault hook fired during setup")
		}
	}
}

func TestLockSerializationAdvancesSimTime(t *testing.T) {
	m := compile(t, `
global int c;
func void slave() {
	lock(1);
	int i;
	for (i = 0; i < 100; i = i + 1) {
		c = c + 1;
	}
	unlock(1);
}`)
	r1, err := Run(m, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Fully serialized critical sections: 4 threads take at least ~4× the
	// single-thread critical-path time (remote-memory costs make it more).
	if r4.SimTime < 3*r1.SimTime {
		t.Errorf("lock serialization missing: 1t=%d 4t=%d", r1.SimTime, r4.SimTime)
	}
}

// TestLockGrantedInSimTimeOrder: contended locks go to requesters in
// simulated-clock order, not in the order goroutines reach them. Thread i
// works (nt-i)*200 iterations before locking, so the highest thread ID
// arrives first on the simulated clock and must enter first, on every run.
func TestLockGrantedInSimTimeOrder(t *testing.T) {
	m := compile(t, `
global int order[8];
global int pos;
func void slave() {
	int me = tid();
	int nt = nthreads();
	int i;
	int x = 0;
	for (i = 0; i < (nt - me) * 200; i = i + 1) {
		x = x + i;
	}
	lock(1);
	order[pos] = me;
	pos = pos + 1;
	unlock(1);
	barrier();
	if (me == 0) {
		for (i = 0; i < nt; i = i + 1) {
			output(order[i]);
		}
	}
	if (x < 0) {
		output(x);
	}
}`)
	want := []int64{7, 6, 5, 4, 3, 2, 1, 0}
	var first []int64
	for run := 0; run < 5; run++ {
		res, err := Run(m, Options{Threads: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Clean() {
			t.Fatalf("run %d trapped: %v", run, res.Traps)
		}
		if got := ints(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d lock order %v, want %v", run, got, want)
		}
		if first == nil {
			first = append([]int64(nil), res.SimTimes...)
		} else if !reflect.DeepEqual(res.SimTimes, first) {
			t.Fatalf("run %d clocks %v, first run %v", run, res.SimTimes, first)
		}
	}
}

// TestLockDeadlockDetected: lock requests that can never be granted are
// reported as a deadlock hang as soon as every thread is waiting, for a
// self-relock and for opposite-order (ABBA) nesting across threads.
func TestLockDeadlockDetected(t *testing.T) {
	for name, src := range map[string]string{
		"relock": `func void slave() { lock(1); lock(1); }`,
		"abba": `
func void slave() {
	if (tid() == 0) {
		lock(1);
		lock(2);
		unlock(2);
		unlock(1);
	} else {
		lock(2);
		lock(1);
		unlock(1);
		unlock(2);
	}
}`,
	} {
		res, err := Run(compile(t, src), Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		deadlocked := false
		for _, tr := range res.Traps {
			if tr != nil && tr.Kind == TrapDeadlock {
				deadlocked = true
			}
		}
		if !res.Hung() || !deadlocked {
			t.Errorf("%s: want deadlock hang, traps = %v", name, res.Traps)
		}
	}
}

func TestUnlockNotHeldTraps(t *testing.T) {
	m := compile(t, `func void slave() { unlock(3); }`)
	res, err := Run(m, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps[0] == nil || res.Traps[0].Kind != TrapInternal {
		t.Fatalf("unlock-not-held trap missing: %v", res.Traps)
	}
}

func TestValueHelpers(t *testing.T) {
	if AsInt(IntVal(-42)) != -42 {
		t.Error("IntVal round trip")
	}
	if AsFloat(FloatVal(2.5)) != 2.5 {
		t.Error("FloatVal round trip")
	}
	if !AsBool(BoolVal(true)) || AsBool(BoolVal(false)) {
		t.Error("BoolVal round trip")
	}
}

func TestTrapKindStrings(t *testing.T) {
	kinds := []TrapKind{TrapOOB, TrapDivZero, TrapStepLimit, TrapDeadlock,
		TrapStackOverflow, TrapAborted, TrapInternal}
	for _, k := range kinds {
		if k.String() == "" || k.String()[0] == 'T' && len(k.String()) > 20 {
			t.Errorf("bad trap name %q", k.String())
		}
	}
	tr := &Trap{Thread: 3, Kind: TrapOOB, Msg: "x"}
	if tr.Error() == "" {
		t.Error("empty trap error")
	}
}

func compileViaLower(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lower.Compile(src, "t")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInterproceduralLoopKeysAreStable(t *testing.T) {
	// Two calls to the same function from different sites inside a loop:
	// the monitor must see distinct instances (no duplicate reports).
	m := compileViaLower(t, `
global int n;
func void setup() { n = 3; }
func int pick(int x) {
	if (x > 1) {
		return x;
	}
	return 1;
}
func void slave() {
	int i;
	int s = 0;
	for (i = 0; i < n; i = i + 1) {
		s = s + pick(i);
		s = s + pick(i + 1);
	}
	output(s);
}`)
	a := analyzeModule(t, m)
	res, err := Run(m, Options{Threads: 4, Mode: MonitorActive, Plans: a})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("call-site keying broken (false positive): %v", res.Violations)
	}
}

// analyzeModule runs the default analysis and returns its plans.
func analyzeModule(t *testing.T, m *ir.Module) map[int]*core.CheckPlan {
	t.Helper()
	a, err := core.Analyze(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return a.Plans
}

func TestTraceOutput(t *testing.T) {
	m := compile(t, faultProg)
	var buf strings.Builder
	if _, err := Run(m, Options{Threads: 1, Trace: &buf}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("trace lines = %d, want 6:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "t0 branch#") || !strings.Contains(lines[0], "taken=true") {
		t.Fatalf("bad trace line: %q", lines[0])
	}
	if !strings.Contains(lines[5], "taken=false") {
		t.Fatalf("exit evaluation not traced as not-taken: %q", lines[5])
	}
}

func TestHierarchicalMonitorIntegration(t *testing.T) {
	m := compileViaLower(t, `
global int n;
global int acc[16];
func void setup() { n = 40; }
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
		output(acc[0]);
	}
}`)
	plans := analyzeModule(t, m)
	// Clean run with 4 sub-monitors over 8 threads: no false positives.
	res, err := Run(m, Options{Threads: 8, Mode: MonitorActive, Plans: plans, MonitorGroups: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("hierarchical false positive: %v", res.Violations)
	}
	// Faulty run: a shared-loop flip must still be detected through the
	// hierarchy.
	golden, err := Run(m, Options{Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	detected := 0
	for seq := uint64(2); seq < golden.BranchCounts[3] && detected == 0; seq += 3 {
		ij := &recordingInjector{flipAt: seq}
		ij.tids = nil
		fr, err := Run(m, Options{
			Threads: 8, Mode: MonitorActive, Plans: plans, MonitorGroups: 4,
			Fault: &targetThread{inner: ij, thread: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if fr.Detected {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("hierarchical monitor never detected an injected flip")
	}
}

// targetThread restricts an injector to one thread.
type targetThread struct {
	inner  *recordingInjector
	thread int
}

func (tt *targetThread) BeforeBranch(t *Thread, br *ir.Instr) bool {
	if t.Tid() != tt.thread {
		return false
	}
	return tt.inner.BeforeBranch(t, br)
}
