package harness

import (
	"blockwatch/internal/benchstore"
	"blockwatch/internal/inject"
)

// The experiment registry: the single source of truth for what bwbench
// can run. The CLI's -exp flag, its help text, the generated
// docs/cli.md and README experiment tables, and the -json artifact
// emission are all derived from this list, so they cannot drift from
// each other or from the drivers.

// ExperimentResult is one experiment's output: the rendered text
// artifact, plus benchstore records for the campaign experiments that
// emit them (nil for the paper tables/figures, whose artifacts are the
// text itself).
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
		{ID: "netfault", Desc: "transport-fault campaign: zero lost verdicts under drops, stalls, corruption", Perf: true,
			Run: func(cfg Config) (ExperimentResult, error) {
				points, err := NetFault(cfg)
				if err != nil {
					return ExperimentResult{}, err
				}
				return ExperimentResult{Text: RenderNetFault(points), Records: NetFaultRecords(points)}, nil
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
