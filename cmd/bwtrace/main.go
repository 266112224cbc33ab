// Command bwtrace records BLOCKWATCH monitor event streams to disk and
// replays them offline. A trace file uses the same framed wire format the
// remote monitor speaks, so a recorded run can be re-checked (or examined)
// long after the monitored process exited.
//
// Usage:
//
//	bwtrace record [-bench name | file.mc] [-threads N] [-seed N] -o run.bwtrace
//	bwtrace replay run.bwtrace
//	bwtrace stat   run.bwtrace
//
// record runs the program under the in-process monitor while teeing every
// event to the trace file. replay feeds the recorded stream through a fresh
// monitor and reports whether its verdict matches the one sealed into the
// trace. stat summarizes a trace without checking it.
//
// All commands also accept a leading -version flag printing the build
// version.
//
// Exit status: 0 for a clean verdict, 2 when the (live or replayed) monitor
// detected violations, 1 for any other error — the same convention as bwrun.
package main

import (
	"fmt"
	"io"
	"os"

	"blockwatch"
	"blockwatch/cmd/internal/cliref"
	"blockwatch/internal/buildinfo"
	"blockwatch/internal/trace"
)

func main() {
	detected, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwtrace:", err)
		os.Exit(1)
	}
	if detected {
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) (detected bool, err error) {
	if buildinfo.HandleVersion(args, stdout, "bwtrace") {
		return false, nil
	}
	if len(args) < 1 {
		return false, fmt.Errorf("usage: bwtrace record|replay|stat [flags] ...")
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "record":
		return record(rest, stdout, stderr)
	case "replay":
		return replay(rest, stdout, stderr)
	case "stat":
		return false, stat(rest, stdout, stderr)
	default:
		return false, fmt.Errorf("unknown subcommand %q (want record, replay, or stat)", cmd)
	}
}

func record(args []string, stdout, stderr io.Writer) (bool, error) {
	fs, opt := cliref.TraceRecordFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if opt.Out == "" {
		return false, fmt.Errorf("record: -o trace file is required")
	}
	prog, err := loadProgram(opt.Bench, fs.Args())
	if err != nil {
		return false, err
	}
	f, err := os.Create(opt.Out)
	if err != nil {
		return false, err
	}
	res, err := prog.Run(blockwatch.RunOptions{
		Threads: opt.Threads,
		Seed:    opt.Seed,
		Record:  f,
	})
	if cerr := f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("sealing trace: %w", cerr)
	}
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "recorded %s, %d threads -> %s\n", prog.Name(), opt.Threads, opt.Out)
	printVerdict(stdout, res.Detected, res.Violations)
	fmt.Fprintf(stdout, "monitor health: %s\n", res.Health)
	return res.Detected, nil
}

func replay(args []string, stdout, stderr io.Writer) (bool, error) {
	fs, opt := cliref.TraceReplayFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	f, err := openTrace(fs.Args())
	if err != nil {
		return false, err
	}
	defer f.Close()
	o, err := trace.Replay(f, trace.ReplayConfig{QueueCap: opt.QueueCap})
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "replayed %s, %d threads (%d events, %d checked instances)\n",
		o.Program, o.Threads, o.Stats.Events, o.Stats.Instances)
	switch {
	case !o.Clean && o.Stats.Events == 0:
		fmt.Fprintln(stdout, "WARNING: trace is header-only (no events were recorded before the recording stopped)")
	case !o.Clean:
		fmt.Fprintln(stdout, "WARNING: trace is truncated (recording process died mid-run); verdict covers the recorded prefix only")
	}
	vs := make([]string, len(o.Violations))
	for i, v := range o.Violations {
		vs[i] = v.String()
	}
	printVerdict(stdout, o.Detected, vs)
	switch {
	case o.Recorded == nil:
		fmt.Fprintln(stdout, "no recorded verdict to compare against")
	case o.Recorded.Detected() == o.Detected && len(o.Recorded.Violations) == len(o.Violations):
		fmt.Fprintln(stdout, "replay verdict matches the recorded live verdict")
	default:
		fmt.Fprintf(stdout, "replay verdict DIVERGES from the recorded live verdict (live: detected=%t, %d violations)\n",
			o.Recorded.Detected(), len(o.Recorded.Violations))
	}
	return o.Detected, nil
}

func stat(args []string, stdout, stderr io.Writer) error {
	fs := cliref.TraceStatFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := openTrace(fs.Args())
	if err != nil {
		return err
	}
	defer f.Close()
	info, err := trace.Stat(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "program:  %s\n", info.Program)
	fmt.Fprintf(stdout, "threads:  %d (%d finished)\n", info.Threads, info.DoneThreads)
	fmt.Fprintf(stdout, "plans:    %d checked branches\n", info.Plans)
	fmt.Fprintf(stdout, "frames:   %d\n", info.Frames)
	fmt.Fprintf(stdout, "events:   %d\n", info.Events)
	for tid, n := range info.EventsPerThread {
		fmt.Fprintf(stdout, "  thread %2d: %8d events, %d flushes\n", tid, n, info.FlushesPerThread[tid])
	}
	switch {
	case info.Clean:
		fmt.Fprintln(stdout, "sealed:   yes")
	case info.Frames == 0:
		fmt.Fprintln(stdout, "sealed:   NO (header-only: no events were recorded)")
	default:
		fmt.Fprintln(stdout, "sealed:   NO (truncated)")
	}
	if info.Recorded != nil {
		fmt.Fprintf(stdout, "recorded verdict: detected=%t, %d violations, health %s\n",
			info.Recorded.Detected(), len(info.Recorded.Violations), info.Recorded.Health)
	}
	return nil
}

func openTrace(args []string) (*os.File, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("expected one trace file")
	}
	return os.Open(args[0])
}

func printVerdict(stdout io.Writer, detected bool, violations []string) {
	if !detected {
		fmt.Fprintln(stdout, "run clean, no violations")
		return
	}
	fmt.Fprintln(stdout, "DETECTED violations:")
	for _, v := range violations {
		fmt.Fprintln(stdout, "  ", v)
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
