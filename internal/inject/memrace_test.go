package inject

import (
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/splash"
)

// TestFaultyKernelsShareMemoryRaceFree replays, in process, two
// branch-flip positions at which the flipped thread races another
// thread on the same word of the interpreter's shared memory
// (continuous-ocean and fft, thread 1, four threads). SPMD threads share
// globals without locks, so the interpreter's loads and stores must be
// word-atomic: under -race a plain access fails this test.
func TestFaultyKernelsShareMemoryRaceFree(t *testing.T) {
	for _, c := range []struct {
		name string
		seq  uint64
	}{{"continuous-ocean", 3190}, {"fft", 1118}} {
		prog, err := splash.Get(c.name)
		if err != nil {
			t.Fatal(err)
		}
		mod, err := prog.Compile()
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.Analyze(mod, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fault := Fault{Type: BranchFlip, Thread: 1, Seq: c.seq}
		for run := 0; run < 3; run++ {
			res, err := interp.Run(mod, interp.Options{Threads: 4, Mode: interp.MonitorActive,
				Plans: a.Plans, Fault: NewSingle(fault)})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.BranchCounts[1] < c.seq {
				t.Fatalf("%s: thread 1 ran %d branches, fault at %d never fired", c.name, res.BranchCounts[1], c.seq)
			}
		}
	}
}
