package interp

import (
	"errors"
	"reflect"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
	"blockwatch/internal/lower"
	"blockwatch/internal/monitor"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lower.Compile(src, "t")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return m
}

func run(t *testing.T, src string, threads int) *Result {
	t.Helper()
	m := compile(t, src)
	res, err := Run(m, Options{Threads: threads})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func ints(res *Result) []int64 {
	out := make([]int64, len(res.Output))
	for i, v := range res.Output {
		out[i] = AsInt(v)
	}
	return out
}

func TestRunArithmetic(t *testing.T) {
	res := run(t, `
func void slave() {
	output(2 + 3 * 4);
	output(10 / 3);
	output(10 % 3);
	output(-7);
	output(abs(-5));
	output(min(3, 9));
	output(max(3, 9));
}`, 1)
	want := []int64{14, 3, 1, -7, 5, 3, 9}
	if got := ints(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	if !res.Clean() {
		t.Fatalf("traps: %v", res.Traps)
	}
}

func TestRunFloats(t *testing.T) {
	res := run(t, `
func void slave() {
	float x = 2.0;
	float y = sqrt(x * 8.0);
	outputf(y);
	outputf(fabs(-1.5));
	output(ftoi(3.99));
	outputf(itof(7) / 2.0);
}`, 1)
	if AsFloat(res.Output[0]) != 4.0 {
		t.Errorf("sqrt(16) = %v", AsFloat(res.Output[0]))
	}
	if AsFloat(res.Output[1]) != 1.5 {
		t.Errorf("fabs = %v", AsFloat(res.Output[1]))
	}
	if AsInt(res.Output[2]) != 3 {
		t.Errorf("ftoi = %v", AsInt(res.Output[2]))
	}
	if AsFloat(res.Output[3]) != 3.5 {
		t.Errorf("7/2 = %v", AsFloat(res.Output[3]))
	}
}

func TestRunControlFlow(t *testing.T) {
	res := run(t, `
func void slave() {
	int i;
	int sum = 0;
	for (i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) {
			continue;
		}
		if (i == 9) {
			break;
		}
		sum = sum + i;
	}
	output(sum);
}`, 1)
	if got := ints(res); got[0] != 1+3+5+7 {
		t.Fatalf("sum = %d, want 16", got[0])
	}
}

func TestRunFunctionsAndRecursion(t *testing.T) {
	res := run(t, `
func int fib(int n) {
	if (n < 2) {
		return n;
	}
	return fib(n - 1) + fib(n - 2);
}
func void slave() {
	output(fib(15));
}`, 1)
	if got := ints(res); got[0] != 610 {
		t.Fatalf("fib(15) = %d, want 610", got[0])
	}
}

func TestRunSetupAndGlobals(t *testing.T) {
	res := run(t, `
global int table[8];
global int n;
func void setup() {
	int i;
	n = 8;
	for (i = 0; i < n; i = i + 1) {
		table[i] = i * i;
	}
	output(100);
}
func void slave() {
	int s = 0;
	int i;
	for (i = 0; i < n; i = i + 1) {
		s = s + table[i];
	}
	output(s);
}`, 2)
	want := []int64{100, 140, 140}
	if got := ints(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
}

func TestRunThreadsPartitionWork(t *testing.T) {
	res := run(t, `
global int acc[4];
func void slave() {
	int me = tid();
	acc[me] = me * 10;
	barrier();
	if (me == 0) {
		int i;
		int s = 0;
		for (i = 0; i < nthreads(); i = i + 1) {
			s = s + acc[i];
		}
		output(s);
	}
}`, 4)
	if got := ints(res); len(got) != 1 || got[0] != 60 {
		t.Fatalf("output = %v, want [60]", got)
	}
}

func TestRunDeterministicAcrossRuns(t *testing.T) {
	src := `
global float grid[64];
func void setup() {
	int i;
	for (i = 0; i < 64; i = i + 1) {
		grid[i] = itof(rnd() % 100) / 10.0;
	}
}
func void slave() {
	int me = tid();
	int per = 64 / nthreads();
	int i;
	float s = 0.0;
	for (i = me * per; i < (me + 1) * per; i = i + 1) {
		s = s + grid[i] * grid[i];
	}
	outputf(s);
}`
	a := run(t, src, 4)
	b := run(t, src, 4)
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Fatal("same seed, different outputs")
	}
	m := compile(t, src)
	c, err := Run(m, Options{Threads: 4, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Output, c.Output) {
		t.Fatal("different seed, same outputs (rnd not seeded)")
	}
}

func TestRunLockMutualExclusion(t *testing.T) {
	res := run(t, `
global int counter;
func void slave() {
	int i;
	for (i = 0; i < 1000; i = i + 1) {
		lock(3);
		counter = counter + 1;
		unlock(3);
	}
	barrier();
	if (tid() == 0) {
		output(counter);
	}
}`, 4)
	if got := ints(res); got[0] != 4000 {
		t.Fatalf("counter = %d, want 4000 (lost updates)", got[0])
	}
}

func TestRunBarrierPhases(t *testing.T) {
	res := run(t, `
global int a[4];
global int b[4];
func void slave() {
	int me = tid();
	a[me] = me + 1;
	barrier();
	b[me] = a[(me + 1) % nthreads()] * 10;
	barrier();
	if (me == 0) {
		int i;
		for (i = 0; i < nthreads(); i = i + 1) {
			output(b[i]);
		}
	}
}`, 4)
	want := []int64{20, 30, 40, 10}
	if got := ints(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
}

func TestTrapOutOfBounds(t *testing.T) {
	res := run(t, `
global int a[4];
func void slave() {
	a[7] = 1;
}`, 1)
	if !res.Crashed() {
		t.Fatalf("want OOB crash, traps = %v", res.Traps)
	}
	if res.Traps[0].Kind != TrapOOB {
		t.Fatalf("trap = %v, want OOB", res.Traps[0])
	}
}

func TestTrapDivZero(t *testing.T) {
	res := run(t, `
global int z;
func void slave() {
	output(5 / z);
}`, 1)
	if !res.Crashed() || res.Traps[0].Kind != TrapDivZero {
		t.Fatalf("want div-zero crash, traps = %v", res.Traps)
	}
}

func TestFloatDivZeroIsIEEE(t *testing.T) {
	res := run(t, `
global float z;
func void slave() {
	outputf(1.0 / z);
}`, 1)
	if !res.Clean() {
		t.Fatalf("float div by zero trapped: %v", res.Traps)
	}
}

func TestTrapStepLimit(t *testing.T) {
	m := compile(t, `
func void slave() {
	while (true) {
		output(1);
	}
}`)
	res, err := Run(m, Options{Threads: 1, StepLimit: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hung() || res.Traps[0].Kind != TrapStepLimit {
		t.Fatalf("want step-limit hang, traps = %v", res.Traps)
	}
}

func TestTrapBarrierDeadlock(t *testing.T) {
	// Thread 0 skips the barrier and exits; the rest deadlock.
	res := run(t, `
func void slave() {
	if (tid() != 0) {
		barrier();
	}
}`, 4)
	if !res.Hung() {
		t.Fatalf("want deadlock hang, traps = %v", res.Traps)
	}
}

func TestTrapStackOverflow(t *testing.T) {
	res := run(t, `
func int boom(int n) {
	return boom(n + 1);
}
func void slave() {
	output(boom(0));
}`, 1)
	if !res.Crashed() || res.Traps[0].Kind != TrapStackOverflow {
		t.Fatalf("want stack overflow, traps = %v", res.Traps)
	}
}

func TestSimTimeScalesWithWork(t *testing.T) {
	src := `
global int work[1024];
func void slave() {
	int me = tid();
	int per = 1024 / nthreads();
	int i;
	for (i = me * per; i < (me + 1) * per; i = i + 1) {
		work[i] = i * 3;
	}
}`
	m := compile(t, src)
	r1, err := Run(m, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(m, Options{Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r4.SimTime >= r1.SimTime {
		t.Fatalf("4 threads (%d cycles) not faster than 1 (%d cycles)", r4.SimTime, r1.SimTime)
	}
	if r4.SimTime < r1.SimTime/8 {
		t.Fatalf("4-thread speedup super-linear: %d vs %d", r4.SimTime, r1.SimTime)
	}
}

func TestMonitoredRunSendsEvents(t *testing.T) {
	src := `
global int n;
func void setup() { n = 4; }
func void slave() {
	int i;
	for (i = 0; i < n; i = i + 1) {
		output(i);
	}
}`
	m := compile(t, src)
	an, err := core.Analyze(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, Options{Threads: 2, Mode: MonitorActive, Plans: an.Plans})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Fatalf("false positive: %v", res.Violations)
	}
	// The shared loop branch executes 5 times (4 taken + 1 exit) per thread.
	if res.MonitorStats.Events != 10 {
		t.Errorf("monitor events = %d, want 10", res.MonitorStats.Events)
	}
	if res.MonitorStats.Instances != 5 {
		t.Errorf("instances checked = %d, want 5", res.MonitorStats.Instances)
	}
}

// TestExternalSink: a supplied Sink is fed and harvested like the
// run-owned monitor (Stats included), and is rejected with MonitorOff.
func TestExternalSink(t *testing.T) {
	m := compile(t, `
global int n;
func void setup() { n = 4; }
func void slave() {
	int i;
	for (i = 0; i < n; i = i + 1) {
		output(i);
	}
}`)
	an, err := core.Analyze(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	newSink := func() monitor.Sink {
		s, err := monitor.New(monitor.Config{NumThreads: 2, Plans: an.Plans})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	res, err := Run(m, Options{Threads: 2, Mode: MonitorActive, Plans: an.Plans, Sink: newSink()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || res.MonitorStats.Events != 10 {
		t.Errorf("Detected = %v, Events = %d; want false, 10", res.Detected, res.MonitorStats.Events)
	}
	off := newSink()
	if _, err := Run(m, Options{Threads: 2, Mode: MonitorOff, Plans: an.Plans, Sink: off}); !errors.Is(err, ErrSinkOpts) {
		t.Errorf("off: err = %v, want ErrSinkOpts", err)
	}
	off.Close()
}

func TestInstrumentationAddsSimTime(t *testing.T) {
	src := `
global int n;
func void setup() { n = 100; }
func void slave() {
	int i;
	int s = 0;
	for (i = 0; i < n; i = i + 1) {
		s = s + i;
	}
	output(s);
}`
	m := compile(t, src)
	an, err := core.Analyze(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(m, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Run(m, Options{Threads: 2, Mode: MonitorDrainOnly, Plans: an.Plans})
	if err != nil {
		t.Fatal(err)
	}
	if inst.SimTime <= base.SimTime {
		t.Fatalf("instrumented %d cycles <= baseline %d", inst.SimTime, base.SimTime)
	}
	if base.Output[0] != inst.Output[0] {
		t.Fatal("instrumentation changed program output")
	}
}

func TestBranchCountsPopulated(t *testing.T) {
	res := run(t, `
func void slave() {
	int i;
	for (i = 0; i < 10; i = i + 1) {
		if (i % 2 == 0) {
			output(i);
		}
	}
}`, 2)
	for tid, n := range res.BranchCounts {
		// 11 loop-header executions + 10 ifs.
		if n != 21 {
			t.Errorf("thread %d branch count = %d, want 21", tid, n)
		}
	}
}

func TestRunOptionErrors(t *testing.T) {
	m := compile(t, `func void slave() {}`)
	if _, err := Run(m, Options{Threads: 0}); err == nil {
		t.Error("want error for 0 threads")
	}
	if _, err := Run(m, Options{Threads: 1, Mode: MonitorActive}); err == nil {
		t.Error("want error for monitor mode without plans")
	}
	m2 := compile(t, `func void other() {}`)
	if _, err := Run(m2, Options{Threads: 1}); err == nil {
		t.Error("want error for missing slave")
	}
}

func TestNUMABumpInCostModel(t *testing.T) {
	c := DefaultCostModel()
	if c.sendCost(1) >= c.sendCost(2) {
		t.Error("send cost must rise when crossing processors")
	}
	if c.memCost(1) >= c.memCost(2) {
		t.Error("mem cost must rise when crossing processors")
	}
	if c.sendCost(2) != c.sendCost(32) {
		t.Error("remote penalty applies equally for 2..32 threads")
	}
}
