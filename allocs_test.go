package blockwatch

import (
	"runtime"
	"testing"
)

// TestProtectedRunAllocsFlat is the alloc gate for a whole protected run:
// once a run of the same shape has closed, a run of every bundled kernel
// at two threads reuses the front-end queues and the instance table, and
// the interpreter reuses its frames across calls, so what is left is the
// per-run set-up (the machine, its global memory, the monitor and its
// Senders, the result).
func TestProtectedRunAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc gate runs in the non-race jobs")
	}
	const (
		maxAllocs = 256
		maxBytes  = 256 << 10
		runs      = 3
	)
	for _, bench := range Benchmarks() {
		prog, err := LoadBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := prog.Analyze(AnalysisOptions{})
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			res, err := prog.Run(RunOptions{Threads: 2, Protect: true, Analysis: rep})
			if err != nil {
				t.Fatal(err)
			}
			if res.Detected || res.Crashed || res.Hung || res.Health != "healthy" {
				t.Fatalf("%s: run not clean: %+v", bench, res)
			}
		}
		run() // warm-up: leaves the spare queues and table behind
		allocs := testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocs, %.1f KiB per run", bench, allocs, float64(bytes)/1024)
		if allocs > maxAllocs {
			t.Errorf("%s: %.0f allocations per protected run, want ≤ %d", bench, allocs, maxAllocs)
		}
		if bytes > maxBytes {
			t.Errorf("%s: %d bytes allocated per protected run, want ≤ %d", bench, bytes, maxBytes)
		}
	}
}
