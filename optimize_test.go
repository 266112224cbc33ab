package blockwatch

import (
	"slices"
	"testing"
)

// TestOptimizeAfterRun: a program optimized after it has run executes the
// optimized code from then on, exactly like a program optimized before
// its first run — the interpreter's decoded form of the old code is not
// reused.
func TestOptimizeAfterRun(t *testing.T) {
	changed := 0
	for _, bench := range Benchmarks() {
		ran, err := LoadBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		before, err := ran.Run(RunOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		ran.Optimize()
		after, err := ran.Run(RunOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}

		fresh, err := LoadBenchmark(bench)
		if err != nil {
			t.Fatal(err)
		}
		fresh.Optimize()
		want, err := fresh.Run(RunOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if after.SimTime != want.SimTime || !slices.Equal(after.Output, want.Output) {
			t.Errorf("%s: run after Optimize took %d cycles, a program optimized before its first run %d",
				bench, after.SimTime, want.SimTime)
		}
		if after.SimTime != before.SimTime {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("Optimize changed no kernel's simulated time: the check is vacuous")
	}
}
