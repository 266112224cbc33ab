// Command bwrun executes a MiniC SPMD program (or a bundled benchmark)
// under the interpreter, optionally protected by the BLOCKWATCH monitor,
// and prints the program output, simulated-cycle span, and any detections.
//
// Usage:
//
//	bwrun [flags] <file.mc>
//	bwrun [flags] -bench radix
//
// Exit status: 0 for a clean run, 2 when the monitor detected violations
// (so scripts and CI can gate on detections), 1 for any other error.
//
// Flags:
//
//	-bench name   run a bundled benchmark instead of a file
//	-threads N    SPMD thread count (default 4)
//	-protect      instrument and run the checking monitor
//	-seed N       rnd() seed
//	-q            quiet: suppress the program output listing
//	-overhead     also report the normalized instrumented execution time
//	-queuecap N   per-thread monitor queue capacity (0 = default 16384)
//	-overflow P   queue-overflow policy: block | drop-newest | block-timeout
//	-batch N      per-thread event batch size (0 = default 64, 1 = unbatched)
//	-watchdog D   stall-watchdog deadline (e.g. 500ms; 0 = disabled)
//	-remote A     stream events to a bwmonitord daemon at A instead of
//	              checking in-process (implies -protect; fails open if the
//	              daemon dies)
//	-retry N      with -remote, retry each failed dial up to N times with
//	              exponential backoff, reconnecting mid-run after drops
//	              (0 = single attempt, no reconnect)
//	-spool F      with -remote, buffer the event stream to disk file F and
//	              replay it on reconnect; if the daemon never comes back
//	              the spool is sealed as a bwtrace-replayable trace
//	-record F     record the event stream to trace file F while checking
//	              in-process (implies -protect; replay with bwtrace)
//	-metrics F    print the run's final metrics snapshot to stdout in
//	              format F: json | prom (Prometheus text exposition)
//	-metrics-addr A  serve /metrics, /healthz and /debug/pprof at A for
//	              the run's duration (useful for profiling long runs)
//	-version      print the build version and exit
package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"blockwatch"
	"blockwatch/cmd/internal/cliref"
	"blockwatch/internal/adminhttp"
	"blockwatch/internal/buildinfo"
	"blockwatch/internal/metrics"
)

func main() {
	res, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwrun:", err)
		os.Exit(1)
	}
	if res != nil && res.Detected {
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) (*blockwatch.RunResult, error) {
	if buildinfo.HandleVersion(args, stdout, "bwrun") {
		return nil, nil
	}
	fs, opt := cliref.RunFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	policy, err := blockwatch.ParseOverflowPolicy(opt.Overflow)
	if err != nil {
		return nil, err
	}
	reg, err := metricsRegistry(opt.MetricsFormat, opt.MetricsAddr)
	if err != nil {
		return nil, err
	}

	prog, err := loadProgram(opt.Bench, fs.Args())
	if err != nil {
		return nil, err
	}
	runOpts := blockwatch.RunOptions{
		Threads:       opt.Threads,
		Protect:       opt.Protect,
		Seed:          opt.Seed,
		QueueCap:      opt.QueueCap,
		Overflow:      policy,
		SenderBatch:   opt.Batch,
		StallDeadline: opt.Watchdog,
		Remote:        opt.Remote,
		RemoteRetry:   opt.Retry,
		RemoteSpool:   opt.Spool,
		Metrics:       reg,
	}
	if (opt.Retry != 0 || opt.Spool != "") && opt.Remote == "" {
		return nil, fmt.Errorf("-retry and -spool require -remote")
	}
	if opt.Trace {
		runOpts.Trace = stderr
	}
	if opt.MetricsAddr != "" {
		adm, err := adminhttp.Start(opt.MetricsAddr, reg)
		if err != nil {
			return nil, err
		}
		defer adm.Close()
		fmt.Fprintf(stderr, "bwrun: metrics endpoints on http://%s\n", adm.Addr())
	}
	var traceFile *os.File
	if opt.Record != "" {
		traceFile, err = os.Create(opt.Record)
		if err != nil {
			return nil, fmt.Errorf("-record: %w", err)
		}
		runOpts.Record = traceFile
	}
	protected := opt.Protect || opt.Remote != "" || opt.Record != ""
	res, err := prog.Run(runOpts)
	if traceFile != nil {
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("-record: %w", cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "program %s, %d threads, protected=%t\n", prog.Name(), opt.Threads, protected)
	if opt.Quiet {
		fmt.Fprintf(stdout, "output (%d values) suppressed by -q\n", len(res.Output))
	} else {
		fmt.Fprintf(stdout, "output (%d values):\n", len(res.Output))
		for i, v := range res.Output {
			// Print both interpretations; MiniC programs know which they used.
			fmt.Fprintf(stdout, "  [%3d] int=%-12d float=%g\n", i, int64(v), math.Float64frombits(v))
		}
	}
	fmt.Fprintf(stdout, "parallel-section span: %d simulated cycles\n", res.SimTime)
	switch {
	case res.Detected:
		fmt.Fprintln(stdout, "DETECTED violations:")
		for _, v := range res.Violations {
			fmt.Fprintln(stdout, "  ", v)
		}
	case res.Crashed:
		fmt.Fprintln(stdout, "run CRASHED")
	case res.Hung:
		fmt.Fprintln(stdout, "run HUNG")
	default:
		fmt.Fprintln(stdout, "run clean, no violations")
	}
	if protected {
		fmt.Fprintf(stdout, "monitor health: %s (dropped=%d quarantined=%d watchdog-fires=%d)\n",
			res.Health, res.DroppedEvents, res.QuarantinedEvents, res.WatchdogFires)
	}
	if res.MonitorError != "" {
		fmt.Fprintf(stdout, "monitor error: %s\n", res.MonitorError)
	}
	if res.RemoteReconnects > 0 {
		fmt.Fprintf(stdout, "remote monitor reconnected %d time(s)\n", res.RemoteReconnects)
	}
	if res.SealedTrace != "" {
		fmt.Fprintf(stdout, "remote verdict not received; event stream sealed to %s (check offline with: bwtrace replay %s)\n",
			res.SealedTrace, res.SealedTrace)
	}
	if opt.Overhead {
		oh, err := prog.Overhead(opt.Threads)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "instrumentation overhead at %d threads: %.2fx\n", opt.Threads, oh)
	}
	if err := dumpMetrics(stdout, reg, opt.MetricsFormat); err != nil {
		return nil, err
	}
	return res, nil
}

// metricsRegistry builds the run's registry when either metrics flag is
// set (a validated -metrics format, or any -metrics-addr).
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
