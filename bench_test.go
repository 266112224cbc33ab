// Benchmarks regenerating each of the paper's evaluation artifacts (one
// testing.B benchmark per table and figure; see DESIGN.md's experiment
// index). They run the same code paths as cmd/bwbench at reduced fault
// counts so `go test -bench=.` stays tractable; paper-scale numbers come
// from `go run ./cmd/bwbench`.
package blockwatch

import (
	"fmt"
	"sync"
	"testing"

	"blockwatch/internal/core"
	"blockwatch/internal/harness"
	"blockwatch/internal/inject"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
	"blockwatch/internal/queue"
	"blockwatch/internal/splash"
)

func benchCfg() harness.Config {
	return harness.Config{
		Faults:            50,
		FalsePositiveRuns: 3,
		CoverageThreads:   []int{4},
		PerfThreads:       []int{1, 2, 4, 32},
		Seed:              1,
	}
}

// BenchmarkTable3Trace regenerates the paper's Table III propagation trace.
func BenchmarkTable3Trace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Characteristics regenerates Table IV (benchmark
// characteristics: LOC and branch counts).
func BenchmarkTable4Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table4(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Analysis regenerates Table V (similarity category
// statistics) — i.e. it measures the full static analysis over all seven
// kernels.
func BenchmarkTable5Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table5(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Overhead regenerates Figure 6 (normalized execution time at
// 4 and 32 threads for every kernel).
func BenchmarkFig6Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig6(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Scalability regenerates Figure 7 (geomean overhead vs
// thread count).
func BenchmarkFig7Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Fig7(benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8BranchFlip regenerates Figure 8 (SDC coverage under
// branch-flip faults) at a reduced fault count.
func BenchmarkFig8BranchFlip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Coverage(benchCfg(), inject.BranchFlip); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9BranchCondition regenerates Figure 9 (SDC coverage under
// branch-condition faults) at a reduced fault count.
func BenchmarkFig9BranchCondition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Coverage(benchCfg(), inject.CondBit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFalsePositiveRuns regenerates the Section IV false-positive
// experiment (error-free instrumented runs).
func BenchmarkFalsePositiveRuns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.FalsePositives(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("false positives: %+v", res.PerProgram)
		}
	}
}

// BenchmarkDuplicationComparison regenerates the Section VI duplication
// comparison.
func BenchmarkDuplicationComparison(b *testing.B) {
	cfg := benchCfg()
	cfg.Faults = 20
	for i := 0; i < b.N; i++ {
		if _, err := harness.Duplication(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationOptimizations regenerates the optimization ablations
// (promotion and redundant-check elimination).
func BenchmarkAblationOptimizations(b *testing.B) {
	cfg := benchCfg()
	cfg.Faults = 20
	for i := 0; i < b.N; i++ {
		if _, err := harness.Ablation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignWorkers measures fault-injection campaign wall clock
// against the Workers knob on the fft benchmark. The fault list and the
// resulting tallies are identical at every worker count (see
// internal/inject/parallel_test.go); only the scheduling differs, so the
// sub-benchmark ratios directly report parallel speedup. On a single-core
// host the workers serialize and all counts should be within noise of
// workers=1.
func BenchmarkCampaignWorkers(b *testing.B) {
	prog, err := splash.Get("fft")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := prog.Compile()
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(mod, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := inject.Campaign{
					Module:  mod,
					Plans:   a.Plans,
					Threads: 4,
					Faults:  40,
					Type:    inject.BranchFlip,
					Seed:    1,
					Workers: w,
				}
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorThroughput measures the full monitor pipeline — queue
// publish → batched drain → table insert → check — with four concurrent
// producers sending a barrier-paced stream (a generation every 64 events
// per thread), the shape the interpreter produces. The grid compares an
// unbatched Sender (batch 1) against the default batch size; allocs/op
// covers all goroutines, so it reports the steady-state allocation cost
// of the whole pipeline per event. The metrics=on variants attach a metrics.Registry, so the on/off ratio is
// the pipeline's instrumentation overhead (budgeted at < 3%).
func BenchmarkMonitorThroughput(b *testing.B) {
	const producers = 4
	const genEvery = 64
	plans := benchPlans()
	for _, batch := range []int{1, monitor.DefaultSenderBatch} {
		for _, withMetrics := range []bool{false, true} {
			batch, withMetrics := batch, withMetrics
			state := "off"
			if withMetrics {
				state = "on"
			}
			b.Run(fmt.Sprintf("batch=%d/metrics=%s", batch, state), func(b *testing.B) {
				var reg *metrics.Registry
				if withMetrics {
					reg = metrics.NewRegistry()
				}
				m, err := monitor.New(monitor.Config{
					NumThreads:  producers,
					Plans:       plans,
					SenderBatch: batch,
					Metrics:     reg,
				})
				if err != nil {
					b.Fatal(err)
				}
				m.Start()
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for tid := int32(0); tid < producers; tid++ {
					wg.Add(1)
					go func(tid int32) {
						defer wg.Done()
						s := m.Sender(int(tid))
						for i := 0; i < b.N; i++ {
							s.Send(monitor.Event{
								Kind: monitor.EvBranch, Thread: tid, BranchID: 1,
								Key1: 1000, Key2: uint64(i % genEvery), Sig: 5, Taken: i%3 == 0,
							})
							if i%genEvery == genEvery-1 {
								s.Send(monitor.Event{Kind: monitor.EvFlush, Thread: tid})
							}
						}
						s.Send(monitor.Event{Kind: monitor.EvDone, Thread: tid})
					}(tid)
				}
				wg.Wait()
				m.Close()
				b.StopTimer()
				if m.Detected() {
					b.Fatal("unexpected violation")
				}
			})
		}
	}
}

// BenchmarkSendOverflow measures an unbatched Sender's per-event hot path
// across the overflow-policy × queue-capacity grid. Checking is disabled so the
// numbers isolate the producer-side cost: the policy branch, the queue
// push, and (when the drain lags a small queue) the spin or drop path.
// The dropped/op metric shows how much coverage each lossy configuration
// sacrifices to keep the producer unblocked.
func BenchmarkSendOverflow(b *testing.B) {
	policies := []monitor.OverflowPolicy{
		monitor.OverflowBlock, monitor.OverflowDropNewest, monitor.OverflowBlockTimeout,
	}
	for _, pol := range policies {
		for _, qcap := range []int{64, 1 << 14} {
			b.Run(fmt.Sprintf("%s/cap=%d", pol, qcap), func(b *testing.B) {
				m, err := monitor.New(monitor.Config{
					NumThreads: 1, Plans: benchPlans(), QueueCap: qcap,
					Overflow: pol, SenderBatch: 1, CheckingDisabled: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				m.Start()
				s := m.Sender(0)
				ev := monitor.Event{Kind: monitor.EvBranch, Thread: 0, BranchID: 1, Key1: 1, Sig: 5, Taken: true}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev.Key2 = uint64(i)
					s.Send(ev)
				}
				b.StopTimer()
				s.Send(monitor.Event{Kind: monitor.EvDone, Thread: 0})
				m.Close()
				b.ReportMetric(float64(m.Stats().Dropped)/float64(b.N), "dropped/op")
			})
		}
	}
}

// BenchmarkInterpreter measures raw interpreter speed on the fft kernel
// (the substrate cost every experiment pays).
func BenchmarkInterpreter(b *testing.B) {
	prog, err := LoadBenchmark("fft")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Run(RunOptions{Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPSCQueue measures the Lamport queue in isolation.
func BenchmarkSPSCQueue(b *testing.B) {
	q, err := queue.NewSPSC[monitor.Event](1024)
	if err != nil {
		b.Fatal(err)
	}
	ev := monitor.Event{Kind: monitor.EvBranch, BranchID: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(ev)
		q.Pop()
	}
}

// BenchmarkStaticAnalysis measures one full analysis of the largest
// kernel.
func BenchmarkStaticAnalysis(b *testing.B) {
	prog, err := LoadBenchmark("raytrace")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prog.Analyze(AnalysisOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPlans builds a minimal shared-check plan table for the monitor
// benchmark via the public analysis path.
func benchPlans() map[int]*core.CheckPlan {
	prog, err := Compile(`
global int n;
func void setup() { n = 4; }
func void slave() {
	int i;
	for (i = 0; i < n; i = i + 1) {
		output(i);
	}
}`, "bench")
	if err != nil {
		panic(err)
	}
	rep, err := prog.Analyze(AnalysisOptions{})
	if err != nil {
		panic(err)
	}
	return rep.analysis.Plans
}
