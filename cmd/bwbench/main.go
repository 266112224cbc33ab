// Command bwbench reproduces the paper's full evaluation: every table and
// figure of Sections IV–VI, printed as text artifacts. With no flags it
// runs everything at paper scale (1000 faults per campaign, 100
// false-positive runs), which takes several minutes. The wall-clock cost
// of the monitor pipeline is measured by bwperf (bash bwperf/run.sh),
// not here.
//
// Usage:
//
//	bwbench                      run everything
//	bwbench -exp fig8 -faults 300
//	bwbench -exp detectorfault -json BENCH_detectorfault.json
//	bwbench compare -base BENCH_a.json -head BENCH_b.json
//
// The experiment list lives in the internal/harness registry; bwbench's
// -exp help text, the generated docs/cli.md, and the README experiment
// table all derive from it. With -json, the campaign experiments that
// emit records (detectorfault, netfault) also write them as a
// schema-versioned benchstore artifact; the compare subcommand diffs two
// artifacts and exits nonzero on regression (docs/benchmarks.md
// describes the workflow).
//
// -cpuprofile and -memprofile write pprof profiles covering whichever
// experiments ran (`go tool pprof` reads them). A leading -version flag
// prints the build version and exits.
package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"blockwatch/cmd/internal/cliref"
	"blockwatch/internal/benchstore"
	"blockwatch/internal/buildinfo"
	"blockwatch/internal/harness"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bwbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if buildinfo.HandleVersion(args, stdout, "bwbench") {
		return nil
	}
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs, opt := cliref.BenchFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if opt.CPUProfile != "" {
		f, err := os.Create(opt.CPUProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if opt.MemProfile != "" {
		f, err := os.Create(opt.MemProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		// Deferred so the profile covers even a failed run's allocations.
		defer func() {
			runtime.GC() // settle the live set before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "bwbench: memprofile:", err)
			}
			f.Close()
		}()
	}

	cfg := harness.Config{
		Faults:            opt.Faults,
		FalsePositiveRuns: opt.FPRuns,
		Seed:              opt.Seed,
		Workers:           opt.Workers,
	}
	if !opt.Quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, "... "+format+"\n", args...)
		}
	}

	// -exp takes a single id, "all", or a comma-separated list (so one
	// artifact can hold several experiments' records).
	wanted := make(map[string]bool)
	for _, id := range strings.Split(opt.Exp, ",") {
		wanted[strings.TrimSpace(id)] = true
	}

	start := time.Now()
	ran := 0
	artifact := benchstore.New("bwbench")
	for _, e := range harness.Experiments() {
		if !wanted["all"] && !wanted[e.ID] {
			continue
		}
		delete(wanted, e.ID)
		res, err := e.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, res.Text)
		artifact.Add(res.Records...)
		ran++
	}
	delete(wanted, "all")
	if ran == 0 || len(wanted) > 0 {
		return fmt.Errorf("unknown experiment %q; try one of %s", opt.Exp,
			strings.Join(append(harness.ExperimentIDs(), "all"), ", "))
	}
	if opt.JSON != "" {
		if len(artifact.Records) == 0 {
			return fmt.Errorf("-json: experiment %q emits no records", opt.Exp)
		}
		if err := artifact.WriteFile(opt.JSON); err != nil {
			return fmt.Errorf("-json: %w", err)
		}
		fmt.Fprintf(stderr, "bwbench: wrote %d record(s) to %s\n", len(artifact.Records), opt.JSON)
	}
	fmt.Fprintf(stderr, "bwbench: %d experiment(s) in %s\n", ran, time.Since(start).Round(time.Millisecond))
	return nil
}

// compare gates one artifact against another: nonzero exit on any
// regression or on a record/gated metric missing from head.
func compare(args []string, stdout, stderr io.Writer) error {
	fs, opt := cliref.BenchCompareFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if opt.Base == "" || opt.Head == "" {
		return fmt.Errorf("compare: -base and -head artifacts are required")
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("compare: unexpected argument %q", fs.Arg(0))
	}
	base, err := benchstore.ReadFile(opt.Base)
	if err != nil {
		return err
	}
	head, err := benchstore.ReadFile(opt.Head)
	if err != nil {
		return err
	}
	c := benchstore.Compare(base, head, benchstore.CompareOptions{
		TimeTol:  opt.TimeTol,
		SkipTime: opt.NoTime,
	})
	c.Render(stdout)
	if c.Failed() {
		return fmt.Errorf("compare: %d regression(s), %d missing record(s)/metric(s)", c.Regressions, c.Missing)
	}
	return nil
}
