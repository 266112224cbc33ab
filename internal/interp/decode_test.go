package interp

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"blockwatch/internal/ir"
	"blockwatch/internal/opt"
	"blockwatch/internal/splash"
)

// TestInstrSize: a decoded instruction stays within 24 bytes.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(instr{}); n > 24 {
		t.Fatalf("decoded instruction is %d bytes, want ≤ 24", n)
	}
}

func loadKernel(t *testing.T, name string) *ir.Module {
	t.Helper()
	mod, err := splash.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func mustRun(t *testing.T, mod *ir.Module, opts Options) *Result {
	t.Helper()
	res, err := Run(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameRun compares what a MonitorOff run makes observable.
func sameRun(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Output, want.Output) || !reflect.DeepEqual(got.SimTimes, want.SimTimes) ||
		!reflect.DeepEqual(got.BranchCounts, want.BranchCounts) || !reflect.DeepEqual(got.Traps, want.Traps) {
		t.Fatalf("%s: run differs (sim %v vs %v, branches %v vs %v)",
			what, got.SimTimes, want.SimTimes, got.BranchCounts, want.BranchCounts)
	}
}

// TestDecodeOncePerModule: the first run stores the decoded program with
// the module and later runs execute that same program.
func TestDecodeOncePerModule(t *testing.T) {
	mod := loadKernel(t, "fft")
	if mod.Decoded() != nil {
		t.Fatal("a fresh module already has a decoded program")
	}
	mustRun(t, mod, Options{Threads: 2})
	p, ok := mod.Decoded().(*program)
	if !ok {
		t.Fatal("the first run did not store the decoded program")
	}
	mustRun(t, mod, Options{Threads: 2})
	if mod.Decoded().(*program) != p {
		t.Fatal("a later run decoded the module again")
	}
}

// TestOptimizeDropsDecoded: optimizing a module that has run drops its
// decoded program, so the next run executes the optimized IR — exactly
// as a module optimized before its first run does.
func TestOptimizeDropsDecoded(t *testing.T) {
	changed := 0
	for _, name := range splash.Names() {
		ran := loadKernel(t, name)
		before := mustRun(t, ran, Options{Threads: 2})
		opt.Optimize(ran)
		if ran.Decoded() != nil {
			t.Fatalf("%s: Optimize kept the decoded program", name)
		}
		after := mustRun(t, ran, Options{Threads: 2})

		fresh := loadKernel(t, name)
		opt.Optimize(fresh)
		sameRun(t, name, after, mustRun(t, fresh, Options{Threads: 2}))
		if !reflect.DeepEqual(after.SimTimes, before.SimTimes) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("optimizing changed no kernel's simulated time: the check is vacuous")
	}
}

// TestConcurrentFirstRuns: runs that start together on a fresh module
// (each may decode it) all execute one published program and match a run
// of another fresh module. Run under -race.
func TestConcurrentFirstRuns(t *testing.T) {
	const runs = 4
	want := mustRun(t, loadKernel(t, "radix"), Options{Threads: 2})
	mod := loadKernel(t, "radix")
	results := make([]*Result, runs)
	errs := make([]error, runs)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i], errs[i] = Run(mod, Options{Threads: 2})
		}()
	}
	close(start)
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameRun(t, "concurrent first run", results[i], want)
	}
	p := mod.Decoded()
	mustRun(t, mod, Options{Threads: 2})
	if mod.Decoded() != p {
		t.Fatal("the published program changed after the first runs")
	}
}

// TestRunAllocsFlat is the interpreter's alloc gate: once the first run
// of a module has decoded it, a MonitorOff run of every kernel at two
// threads allocates only its small fixed set-up (the machine, its global
// memory, the threads and their frames, the result), however many runs
// follow — the decode is not repeated.
func TestRunAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	const maxAllocs = 64
	for _, name := range splash.Names() {
		mod := loadKernel(t, name)
		run := func() { mustRun(t, mod, Options{Threads: 2}) }
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		first := after.Mallocs - before.Mallocs
		for round := range 2 {
			warm := testing.AllocsPerRun(5, run)
			t.Logf("%s: first run %d allocs, warm round %d %.0f", name, first, round, warm)
			if warm > maxAllocs {
				t.Errorf("%s: %.0f allocations per warm run, want ≤ %d", name, warm, maxAllocs)
			}
			if warm >= float64(first) {
				t.Errorf("%s: a warm run allocates %.0f, no less than the decoding run's %d", name, warm, first)
			}
		}
	}
}

// TestPhiUnknownPredecessorTraps: entering a block whose phis do not
// list the edge's source — here the entry block, reached from the call —
// traps as internal, before any step of the block runs.
func TestPhiUnknownPredecessorTraps(t *testing.T) {
	m := &ir.Module{MName: "phi"}
	f := &ir.Func{FName: "slave", Ret: ir.Void, Mod: m}
	m.Funcs = append(m.Funcs, f)
	entry, loop := f.NewBlock("entry"), f.NewBlock("loop")
	phi := f.NewInstr(ir.OpPhi, ir.Int, ir.ConstInt(1))
	phi.PhiPreds = []*ir.Block{loop}
	entry.Append(phi)
	for _, b := range [][2]*ir.Block{{entry, loop}, {loop, entry}} {
		jmp := f.NewInstr(ir.OpJmp, ir.Void)
		jmp.Then = b[1]
		b[0].Append(jmp)
		b[0].Succs = append(b[0].Succs, b[1])
		b[1].Preds = append(b[1].Preds, b[0])
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	res, err := Run(m, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Traps[0]
	if tr == nil || tr.Kind != TrapInternal || tr.Msg != "phi: unknown predecessor in entry.0" || res.SimTimes[0] != 0 {
		t.Fatalf("trap %v, sim %d; want an internal phi trap at cycle 0", tr, res.SimTimes[0])
	}
}

// TestFloatCompareNegative: a float comparison compares values, not the
// bit patterns as integers, which order negative floats backwards.
func TestFloatCompareNegative(t *testing.T) {
	res := run(t, `
func int yes(bool c) {
	if (c) {
		return 1;
	}
	return 0;
}
func void slave() {
	float a = -2.0;
	float b = -1.0;
	output(yes(a < b));
	output(yes(a <= b));
	output(yes(a > b));
	output(yes(a >= b));
	output(yes(a == b));
	output(yes(a != b));
}`, 1)
	if got, want := ints(res), []int64{1, 1, 0, 0, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
}

// TestPhiSwapIsParallel: the phis of a loop header that swaps two values
// read every incoming value before writing any, so the back edge's copy
// goes through the scratch buffer.
func TestPhiSwapIsParallel(t *testing.T) {
	mod := compile(t, `
func void slave() {
	int i;
	int x = 1;
	int y = 2;
	int t;
	for (i = 0; i < 3; i = i + 1) {
		t = x;
		x = y;
		y = t;
	}
	output(x);
	output(y);
}`)
	res := mustRun(t, mod, Options{Threads: 1})
	if got, want := ints(res), []int64{2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
	scratch := false
	for _, e := range mod.Decoded().(*program).slave.edges {
		scratch = scratch || e.scratch
	}
	if !scratch {
		t.Fatal("no edge copies through the scratch buffer: the check is vacuous")
	}
}
