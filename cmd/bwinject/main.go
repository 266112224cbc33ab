// Command bwinject runs the paper's Section IV fault-injection methodology
// on one program: a profiling run, uniform sampling of (thread, dynamic
// branch) targets, one fault per run, and outcome classification into
// benign / detected / crash / hang / SDC. It reports the paper's coverage
// metric (1 − SDC/activated) with and without BLOCKWATCH.
//
// Usage:
//
//	bwinject [flags] <file.mc>
//	bwinject [flags] -bench fft
//
// Flags:
//
//	-bench name   target a bundled benchmark
//	-threads N    thread count (default 4)
//	-faults N     injections per campaign (default 1000, as in the paper)
//	-type T       branch-flip | branch-condition | event-path | net-fault
//	              (default branch-flip; event-path corrupts the monitor's
//	              own queued events and classifies detector behavior;
//	              net-fault injects transport failures — connection drops,
//	              stalls, partial writes, frame bit-flips — into remote
//	              monitoring sessions and verifies the self-healing
//	              contract: no hangs, no crashes, no lost verdicts)
//	-transport T  with -type net-fault: tcp (default) or unix
//	-no-spool     with -type net-fault: disable the disk spillover, so the
//	              client is merely fail-open (verdicts may be lost)
//	-seed N       campaign seed
//	-workers N    concurrent faulty runs (0 = all cores; results are
//	              identical for any worker count)
//	-progress     print live campaign progress and per-outcome latency
//	              aggregates to stderr
//	-metrics F    print the aggregated monitor metrics of every protected
//	              run to stdout after the campaign: json | prom
//	-metrics-addr A  serve /metrics, /healthz, /debug/pprof at A for the
//	              campaign's duration (scrape a long campaign live)
//	-version      print the build version and exit
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"blockwatch"
	"blockwatch/cmd/internal/cliref"
	"blockwatch/internal/adminhttp"
	"blockwatch/internal/buildinfo"
	"blockwatch/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bwinject:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if buildinfo.HandleVersion(args, stdout, "bwinject") {
		return nil
	}
	fs, opt := cliref.InjectFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	reg, err := metricsRegistry(opt.MetricsFormat, opt.MetricsAddr)
	if err != nil {
		return err
	}
	if opt.MetricsAddr != "" {
		adm, err := adminhttp.Start(opt.MetricsAddr, reg)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Fprintf(stderr, "bwinject: metrics endpoints on http://%s\n", adm.Addr())
	}

	var model blockwatch.FaultModel
	switch opt.Type {
	case "branch-flip":
		model = blockwatch.BranchFlip
	case "branch-condition":
		model = blockwatch.ConditionBit
	case "event-path":
		model = blockwatch.EventPath
	case "net-fault":
	default:
		return fmt.Errorf("unknown fault type %q", opt.Type)
	}

	prog, err := loadProgram(opt.Bench, fs.Args())
	if err != nil {
		return err
	}

	if opt.Type == "net-fault" {
		return netFaultCampaign(stdout, prog, blockwatch.NetFaultOptions{
			Threads:      opt.Threads,
			Faults:       opt.Faults,
			Seed:         opt.Seed,
			Transport:    opt.Transport,
			DisableSpool: opt.NoSpool,
			Workers:      opt.Workers,
		})
	}
	opts := blockwatch.CampaignOptions{
		Threads: opt.Threads, Faults: opt.Faults, Model: model, Seed: opt.Seed,
		Workers: opt.Workers, Metrics: reg,
	}
	if opt.Progress {
		opts.Progress = func(p blockwatch.CampaignProgress) {
			fmt.Fprintf(stderr, "progress: %d/%d injected, %d activated, sdc=%d detected=%d (%s)\n",
				p.Injected, p.Total, p.Activated, p.SDC, p.Detected, p.Elapsed.Round(1e6))
		}
	}
	fmt.Fprintf(stdout, "campaign: %s, %d threads, %d %s faults\n",
		prog.Name(), opt.Threads, opt.Faults, opt.Type)

	if model == blockwatch.EventPath {
		// Event-path faults live inside the detector: there is no
		// unprotected baseline to compare against. Run the protected
		// campaign and report how the detector itself held up.
		res, err := prog.Campaign(opts)
		if err != nil {
			return err
		}
		printTally(stdout, "detector under fault", res)
		d := res.Detector
		fmt.Fprintf(stdout, "detector classification: program-fault detections=%d detector-fault detections=%d quarantined-runs=%d degraded-runs=%d\n",
			d.ProgramDetections, d.DetectorDetections, d.QuarantinedRuns, d.DegradedRuns)
		if opt.Progress {
			printLatency(stderr, "detector under fault", res)
		}
		return dumpMetrics(stdout, reg, opt.MetricsFormat)
	}

	base, err := prog.Campaign(opts)
	if err != nil {
		return err
	}
	opts.Protect = true
	prot, err := prog.Campaign(opts)
	if err != nil {
		return err
	}
	printTally(stdout, "without BLOCKWATCH", base)
	printTally(stdout, "with BLOCKWATCH", prot)
	fmt.Fprintf(stdout, "coverage gain: %.1f%% -> %.1f%%\n", 100*base.Coverage, 100*prot.Coverage)
	if opt.Progress {
		printLatency(stderr, "without BLOCKWATCH", base)
		printLatency(stderr, "with BLOCKWATCH", prot)
	}
	return dumpMetrics(stdout, reg, opt.MetricsFormat)
}

// metricsRegistry builds the campaign's registry when either metrics flag
// is set (a validated -metrics format, or any -metrics-addr).
func metricsRegistry(format, addr string) (*metrics.Registry, error) {
	switch format {
	case "", "json", "prom":
	default:
		return nil, fmt.Errorf("-metrics: unknown format %q (json | prom)", format)
	}
	if format == "" && addr == "" {
		return nil, nil
	}
	return metrics.NewRegistry(), nil
}

// dumpMetrics prints the final snapshot in the -metrics format (no-op for
// an empty format).
func dumpMetrics(w io.Writer, reg *metrics.Registry, format string) error {
	switch format {
	case "json":
		return reg.WriteJSON(w)
	case "prom":
		return reg.WritePrometheus(w)
	}
	return nil
}

// netFaultCampaign runs the transport fault campaign and reports the
// self-healing contract. A nonzero violation count is a hard error, so
// scripts and CI fail when a verdict is lost.
func netFaultCampaign(w io.Writer, prog *blockwatch.Program, opts blockwatch.NetFaultOptions) error {
	fmt.Fprintf(w, "net-fault campaign: %s, %d threads, %d faults over %s (spool %s)\n",
		prog.Name(), opts.Threads, opts.Faults, transportName(opts.Transport), onOff(!opts.DisableSpool))
	res, err := prog.NetFaultCampaign(opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "injected=%d fired=%d reconnects=%d (%s)\n",
		res.Injected, res.Fired, res.Reconnects, res.Elapsed.Round(1e6))
	outcomes := make([]string, 0, len(res.Counts))
	for o := range res.Counts {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Fprintf(w, "  %-14s %d\n", o, res.Counts[o])
	}
	if res.ContractViolations > 0 {
		return fmt.Errorf("self-healing contract violated %d time(s): lost verdicts, hangs, or crashes", res.ContractViolations)
	}
	fmt.Fprintln(w, "self-healing contract held: no hangs, no crashes, no lost verdicts")
	return nil
}

func transportName(t string) string {
	if t == "" {
		return "tcp"
	}
	return t
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func printTally(w io.Writer, label string, r *blockwatch.CampaignResult) {
	fmt.Fprintf(w, "%-20s activated=%d benign=%d detected=%d crash=%d hang=%d sdc=%d coverage=%.1f%%\n",
		label, r.Activated, r.Benign, r.Detected, r.Crashed, r.Hung, r.SDC, 100*r.Coverage)
}

func printLatency(w io.Writer, label string, r *blockwatch.CampaignResult) {
	fmt.Fprintf(w, "%s: campaign wall-clock %s; per-outcome run latency:\n",
		label, r.Elapsed.Round(1e6))
	outcomes := make([]string, 0, len(r.Latency))
	for o := range r.Latency {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		ls := r.Latency[o]
		fmt.Fprintf(w, "  %-14s n=%-6d mean=%-10s min=%-10s max=%s\n",
			o, ls.Count, ls.Mean(), ls.Min, ls.Max)
	}
}

func loadProgram(bench string, args []string) (*blockwatch.Program, error) {
	if bench != "" {
		return blockwatch.LoadBenchmark(bench)
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("expected one source file or -bench name")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	return blockwatch.Compile(string(src), args[0])
}
