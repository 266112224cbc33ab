package cliref

import (
	"flag"
	"io"
	"strings"

	"blockwatch/internal/benchstore"
	"blockwatch/internal/harness"
)

// BenchOpts carries bwbench's parsed flags.
type BenchOpts struct {
	Exp        string
	Faults     int
	FPRuns     int
	Seed       int64
	Workers    int
	Quiet      bool
	CPUProfile string
	MemProfile string
	JSON       string
}

// BenchCompareOpts carries the compare subcommand's parsed flags.
type BenchCompareOpts struct {
	Base    string
	Head    string
	TimeTol float64
	NoTime  bool
}

// BenchFlags builds bwbench's root flag set. The -exp help text is
// derived from the harness experiment registry, so it always matches
// what the dispatcher actually runs.
func BenchFlags(stderr io.Writer) (*flag.FlagSet, *BenchOpts) {
	fs := newFlagSet("bwbench", stderr)
	o := &BenchOpts{}
	fs.StringVar(&o.Exp, "exp", "all",
		"experiment id or comma-separated list ("+strings.Join(harness.ExperimentIDs(), "|")+"|all)")
	fs.IntVar(&o.Faults, "faults", 1000, "faults per campaign cell")
	fs.IntVar(&o.FPRuns, "fpruns", 100, "error-free runs per program for the false-positive experiment")
	fs.Int64Var(&o.Seed, "seed", 1, "campaign seed")
	fs.IntVar(&o.Workers, "workers", 0, "concurrent faulty runs per campaign (0 = all cores)")
	fs.BoolVar(&o.Quiet, "q", false, "suppress progress lines")
	fs.StringVar(&o.CPUProfile, "cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	fs.StringVar(&o.MemProfile, "memprofile", "", "write a heap profile (after the experiments) to this file")
	fs.StringVar(&o.JSON, "json", "", "write the selected experiments' records as a BENCH_*.json artifact to this file")
	return fs, o
}

// BenchCompareFlags builds the compare subcommand's flag set.
func BenchCompareFlags(stderr io.Writer) (*flag.FlagSet, *BenchCompareOpts) {
	fs := newFlagSet("bwbench compare", stderr)
	o := &BenchCompareOpts{}
	fs.StringVar(&o.Base, "base", "", "baseline BENCH_*.json artifact (required)")
	fs.StringVar(&o.Head, "head", "", "candidate BENCH_*.json artifact (required)")
	fs.Float64Var(&o.TimeTol, "tol", benchstore.DefaultTimeTol,
		"relative tolerance on time-derived metrics (ns/op, */sec)")
	fs.BoolVar(&o.NoTime, "no-time", false,
		"report time-derived metrics without gating them (cross-machine mode; allocs/op and record structure still gate)")
	return fs, o
}

func benchCommand() Command {
	return Command{
		Name:    "bwbench",
		Summary: "reproduce the paper's evaluation and the repo's fault campaigns; compare BENCH_*.json artifacts",
		Description: "bwbench runs every table and figure of the paper's Sections IV–VI plus the " +
			"repo's detector-fault and transport-fault campaigns, printed as text artifacts. " +
			"With no flags it runs everything at paper scale (1000 faults per campaign, 100 " +
			"false-positive runs), which takes several minutes. With -json, the campaigns also " +
			"emit schema-versioned benchstore records; bwbench compare gates one artifact " +
			"against another and exits nonzero on regression. The wall-clock cost of the " +
			"monitor pipeline is measured by bwperf (`bash bwperf/run.sh`), not by bwbench.",
		Sections: []Section{
			{
				Usage: "bwbench [flags]",
				Flags: func(stderr io.Writer) *flag.FlagSet { fs, _ := BenchFlags(stderr); return fs },
			},
			{
				Name:    "compare",
				Summary: "diff two BENCH_*.json artifacts and fail on regression",
				Usage:   "bwbench compare -base BENCH_a.json -head BENCH_b.json [flags]",
				Flags:   func(stderr io.Writer) *flag.FlagSet { fs, _ := BenchCompareFlags(stderr); return fs },
			},
		},
		Notes: "compare exit status: 0 when head holds the line, 1 on any gated regression " +
			"or on a record/gated metric missing from head. -cpuprofile and -memprofile " +
			"write pprof profiles covering whichever experiments ran.",
	}
}
