package langtest

import (
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/interp"
	"blockwatch/internal/lower"
	"blockwatch/internal/monitor"
)

// FuzzNoFalsePositive is the paper's zero-false-positive invariant as a
// fuzz target: every generated program is race-free and deterministic by
// construction, so a protected (monitored) run must never report a
// violation, at any thread count or Sender batch size. Varying the batch
// checks that batch boundaries stay invisible to the checks against real
// interpreted barriers and locks.
func FuzzNoFalsePositive(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed%8), uint8(seed%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, threadsRaw, batchRaw uint8) {
		threads := 1 + int(threadsRaw%8) // 1..8
		batch := senderBatches[int(batchRaw)%len(senderBatches)]
		src := Generate(seed, Options{})
		mod, err := lower.Compile(src, "fuzz")
		if err != nil {
			t.Fatalf("generated program failed to compile: %v\n%s", err, src)
		}
		a, err := core.Analyze(mod, core.Options{})
		if err != nil {
			t.Fatalf("analysis failed: %v\n%s", err, src)
		}
		mon, err := monitor.New(monitor.Config{NumThreads: threads, Plans: a.Plans, SenderBatch: batch})
		if err != nil {
			t.Fatal(err)
		}
		res, err := interp.Run(mod, interp.Options{
			Threads:   threads,
			Mode:      interp.MonitorActive,
			Plans:     a.Plans,
			Sink:      mon,
			StepLimit: 5_000_000,
		})
		if err != nil {
			t.Fatalf("protected run failed: %v\n%s", err, src)
		}
		if !res.Clean() {
			t.Fatalf("generated program trapped: %v\n%s", res.Traps, src)
		}
		if res.Detected {
			t.Fatalf("FALSE POSITIVE (seed %d, %d threads, batch %d): %v\n%s",
				seed, threads, batch, res.Violations, src)
		}
	})
}

// senderBatches are the Sender batch sizes FuzzNoFalsePositive draws
// from: unbatched, tiny, odd, and the default.
var senderBatches = []int{1, 2, 7, 64}
