package cliref

import (
	"flag"
	"io"
)

// TraceRecordOpts carries bwtrace record's parsed flags.
type TraceRecordOpts struct {
	Bench   string
	Threads int
	Seed    uint64
	Out     string
}

// TraceReplayOpts carries bwtrace replay's parsed flags.
type TraceReplayOpts struct {
	QueueCap int
}

// TraceRecordFlags builds the record subcommand's flag set.
func TraceRecordFlags(stderr io.Writer) (*flag.FlagSet, *TraceRecordOpts) {
	fs := newFlagSet("bwtrace record", stderr)
	o := &TraceRecordOpts{}
	fs.StringVar(&o.Bench, "bench", "", "bundled benchmark name")
	fs.IntVar(&o.Threads, "threads", 4, "SPMD thread count")
	fs.Uint64Var(&o.Seed, "seed", 0, "rnd() seed")
	fs.StringVar(&o.Out, "o", "", "trace file to write (required)")
	return fs, o
}

// TraceReplayFlags builds the replay subcommand's flag set.
func TraceReplayFlags(stderr io.Writer) (*flag.FlagSet, *TraceReplayOpts) {
	fs := newFlagSet("bwtrace replay", stderr)
	o := &TraceReplayOpts{}
	fs.IntVar(&o.QueueCap, "queuecap", 0, "per-thread monitor queue capacity (0 = default)")
	return fs, o
}

// TraceStatFlags builds the stat subcommand's (empty) flag set.
func TraceStatFlags(stderr io.Writer) *flag.FlagSet {
	return newFlagSet("bwtrace stat", stderr)
}

func traceCommand() Command {
	return Command{
		Name:    "bwtrace",
		Summary: "record monitor event streams to disk and replay them offline",
		Description: "bwtrace records BLOCKWATCH monitor event streams to disk and replays them " +
			"offline. A trace file uses the same framed wire format the remote monitor " +
			"speaks, so a recorded run can be re-checked (or examined) long after the " +
			"monitored process exited. record runs the program under the in-process monitor " +
			"while teeing every event to the trace file; replay feeds the recorded stream " +
			"through a fresh monitor and reports whether its verdict matches the one sealed " +
			"into the trace; stat summarizes a trace without checking it.",
		Sections: []Section{
			{
				Name:    "record",
				Summary: "run a program and tee its event stream to a trace file",
				Usage:   "bwtrace record [-bench name | file.mc] [-threads N] [-seed N] -o run.bwtrace",
				Flags:   func(stderr io.Writer) *flag.FlagSet { fs, _ := TraceRecordFlags(stderr); return fs },
			},
			{
				Name:    "replay",
				Summary: "re-check a recorded stream with a fresh monitor",
				Usage:   "bwtrace replay [flags] run.bwtrace",
				Flags:   func(stderr io.Writer) *flag.FlagSet { fs, _ := TraceReplayFlags(stderr); return fs },
			},
			{
				Name:    "stat",
				Summary: "summarize a trace without checking it",
				Usage:   "bwtrace stat run.bwtrace",
				Flags:   TraceStatFlags,
			},
		},
		Notes: "Exit status: 0 for a clean verdict, 2 when the (live or replayed) monitor " +
			"detected violations, 1 for any other error — the same convention as bwrun.",
	}
}
