package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"blockwatch/internal/benchstore"
	"blockwatch/internal/inject"
	"blockwatch/internal/monitor"
	"blockwatch/internal/wire"
)

// The experiment registry: the single source of truth for what bwbench
// can run. The CLI's -exp flag, its help text, the generated
// docs/cli.md and README experiment tables, and the -json artifact
// emission are all derived from this list, so they cannot drift from
// each other or from the drivers.

// ExperimentResult is one experiment's output: the rendered text
// artifact, plus benchstore records for the perf experiments (nil for
// the paper tables/figures, whose artifacts are the text itself).
type ExperimentResult struct {
	Text    string
	Records []benchstore.Record
}

// Experiment is one registry entry.
type Experiment struct {
	// ID is the -exp value.
	ID string
	// Desc is the one-line description used by bwbench's help text and
	// the generated experiment tables.
	Desc string
	// Perf marks experiments that emit benchstore records with -json.
	Perf bool
	// Run produces the artifact at cfg's scale.
	Run func(cfg Config) (ExperimentResult, error)
}

// text wraps a render-only driver into the registry signature.
func text(f func(cfg Config) (string, error)) func(Config) (ExperimentResult, error) {
	return func(cfg Config) (ExperimentResult, error) {
		out, err := f(cfg)
		return ExperimentResult{Text: out}, err
	}
}

// Experiments returns the registry in display order. The slice is
// rebuilt per call; callers may not mutate registry state through it.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "tables", Desc: "Tables I–II: similarity categories and inference rules (static)",
			Run: text(func(Config) (string, error) {
				return Table1() + "\n" + RenderTable2(), nil
			})},
		{ID: "table3", Desc: "Table III: category propagation trace for the paper's example program",
			Run: text(func(Config) (string, error) { return Table3() })},
		{ID: "table4", Desc: "Table IV: benchmark characteristics of the seven kernels",
			Run: text(func(cfg Config) (string, error) {
				rows, err := Table4(cfg)
				if err != nil {
					return "", err
				}
				return RenderTable4(rows), nil
			})},
		{ID: "table5", Desc: "Table V: per-benchmark similarity-category statistics",
			Run: text(func(cfg Config) (string, error) {
				rows, err := Table5(cfg)
				if err != nil {
					return "", err
				}
				return RenderTable5(rows), nil
			})},
		{ID: "fig6", Desc: "Figure 6: per-benchmark overhead at the paper's two thread counts",
			Run: text(func(cfg Config) (string, error) {
				res, err := Fig6(cfg)
				if err != nil {
					return "", err
				}
				return RenderFig6(res), nil
			})},
		{ID: "fig7", Desc: "Figure 7: geometric-mean overhead vs thread count",
			Run: text(func(cfg Config) (string, error) {
				points, err := Fig7(cfg)
				if err != nil {
					return "", err
				}
				return RenderFig7(points), nil
			})},
		{ID: "fig8", Desc: "Figure 8: branch-flip fault-injection coverage",
			Run: text(func(cfg Config) (string, error) {
				res, err := Coverage(cfg, inject.BranchFlip)
				if err != nil {
					return "", err
				}
				return RenderCoverage(res, "Figure 8"), nil
			})},
		{ID: "fig9", Desc: "Figure 9: condition-bit fault-injection coverage",
			Run: text(func(cfg Config) (string, error) {
				res, err := Coverage(cfg, inject.CondBit)
				if err != nil {
					return "", err
				}
				return RenderCoverage(res, "Figure 9"), nil
			})},
		{ID: "falsepos", Desc: "Section IV: error-free runs asserting zero false positives",
			Run: text(func(cfg Config) (string, error) {
				res, err := FalsePositives(cfg)
				if err != nil {
					return "", err
				}
				return RenderFalsePositives(res), nil
			})},
		{ID: "duplication", Desc: "Section VI: software-duplication baseline comparison",
			Run: text(func(cfg Config) (string, error) {
				res, err := Duplication(cfg)
				if err != nil {
					return "", err
				}
				return RenderDuplication(res), nil
			})},
		{ID: "ablation", Desc: "analysis ablation: promotion and nesting-cap contributions",
			Run: text(func(cfg Config) (string, error) {
				rows, err := Ablation(cfg)
				if err != nil {
					return "", err
				}
				return RenderAblation(rows), nil
			})},
		{ID: "nestsweep", Desc: "coverage vs the loop-nesting instrumentation cap (raytrace)",
			Run: text(func(cfg Config) (string, error) {
				points, err := NestSweep(cfg)
				if err != nil {
					return "", err
				}
				return RenderNestSweep(points), nil
			})},
		{ID: "detectorfault", Desc: "event-path bit-flip campaign against the detector itself", Perf: true,
			Run: func(cfg Config) (ExperimentResult, error) {
				rows, err := DetectorFault(cfg)
				if err != nil {
					return ExperimentResult{}, err
				}
				return ExperimentResult{Text: RenderDetectorFault(rows), Records: DetectorFaultRecords(rows)}, nil
			}},
		{ID: "throughput", Desc: "monitor pipeline events/sec at Sender batch sizes 1 and 64", Perf: true,
			Run: func(cfg Config) (ExperimentResult, error) {
				points, err := Throughput(cfg)
				if err != nil {
					return ExperimentResult{}, err
				}
				return ExperimentResult{Text: RenderThroughput(points), Records: ThroughputRecords(points)}, nil
			}},
		{ID: "remote", Desc: "transport cost: in-process vs tcp vs unix vs record+replay", Perf: true,
			Run: func(cfg Config) (ExperimentResult, error) {
				points, err := Remote(cfg)
				if err != nil {
					return ExperimentResult{}, err
				}
				return ExperimentResult{Text: RenderRemote(points), Records: RemoteRecords(points)}, nil
			}},
		{ID: "netfault", Desc: "transport-fault campaign: zero lost verdicts under drops, stalls, corruption", Perf: true,
			Run: func(cfg Config) (ExperimentResult, error) {
				points, err := NetFault(cfg)
				if err != nil {
					return ExperimentResult{}, err
				}
				return ExperimentResult{Text: RenderNetFault(points), Records: NetFaultRecords(points)}, nil
			}},
		{ID: "ingest", Desc: "multi-session daemon ingest scaling with decode-reuse counters", Perf: true,
			Run: func(cfg Config) (ExperimentResult, error) {
				points, err := Ingest(cfg)
				if err != nil {
					return ExperimentResult{}, err
				}
				recs := IngestRecords(points)
				// The deterministic wire-decode cell rides along: its
				// allocs/op is exactly 0 on the pooled path, which is what
				// makes the cross-machine CI baseline gate meaningful.
				dec, err := wireDecodeRecord()
				if err != nil {
					return ExperimentResult{}, err
				}
				return ExperimentResult{Text: RenderIngest(points), Records: append(recs, dec)}, nil
			}},
		{ID: "fleet", Desc: "fleet scaling: members × sessions with rendezvous placement", Perf: true,
			Run: func(cfg Config) (ExperimentResult, error) {
				points, err := Fleet(cfg)
				if err != nil {
					return ExperimentResult{}, err
				}
				return ExperimentResult{Text: RenderFleet(points), Records: FleetRecords(points)}, nil
			}},
	}
}

// ExperimentIDs returns the registry ids in display order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// FindExperiment looks up one registry entry by id.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// wireDecodeRecord measures the daemon's pooled frame-decode hot path
// in isolation: one default-batch events frame decoded with a reused
// Reader and Frame — the BenchmarkWireDecode loop, measured without the
// testing harness so bwbench can emit it as a record. allocs/op is the
// load-bearing number: the pooled path is exactly zero at steady state
// on every machine, so the CI baseline comparison gates it even where
// wall-clock numbers carry no cross-machine signal.
func wireDecodeRecord() (benchstore.Record, error) {
	evs := make([]monitor.Event, monitor.DefaultSenderBatch)
	for i := range evs {
		evs[i] = monitor.Event{
			Kind:     monitor.EvBranch,
			Thread:   2,
			BranchID: int32(i % 7),
			Key1:     0x9e3779b97f4a7c15 ^ uint64(i%7),
			Key2:     uint64(i / 7),
			Sig:      uint64(i) * 0x100000001b3,
			Taken:    i%3 == 0,
		}
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteEvents(2, evs); err != nil {
		return benchstore.Record{}, err
	}
	if err := w.Sync(); err != nil {
		return benchstore.Record{}, err
	}
	data := buf.Bytes()
	br := bytes.NewReader(data)
	rd := wire.NewReader(br)
	var f wire.Frame
	var derr error
	decode := func() {
		br.Reset(data)
		rd.Reset(br)
		if err := rd.ReadFrameInto(&f); err != nil && derr == nil {
			derr = err
		}
	}

	allocs := allocsPerRun(100, decode)
	const iters = 2000
	start := time.Now()
	for i := 0; i < iters; i++ {
		decode()
	}
	perFrame := float64(time.Since(start).Nanoseconds()) / iters
	if derr != nil {
		return benchstore.Record{}, fmt.Errorf("wire-decode record: %w", derr)
	}
	return benchstore.Record{
		Experiment: "ingest",
		Config: map[string]string{
			"path":  "wire-decode",
			"batch": fmt.Sprintf("%d", len(evs)),
		},
		Values: map[string]float64{"ns/op": perFrame, "allocs/op": allocs},
	}, nil
}

// allocsPerRun mirrors testing.AllocsPerRun (single-proc pinning, one
// warm-up call, truncating division so sub-run background noise rounds
// to zero) without importing package testing into the bwbench binary.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs))
}
