package cliref

import (
	"flag"
	"io"
	"time"
)

// RunOpts carries bwrun's parsed flags.
type RunOpts struct {
	Bench         string
	Threads       int
	Protect       bool
	Seed          uint64
	Quiet         bool
	Overhead      bool
	Trace         bool
	QueueCap      int
	Overflow      string
	Batch         int
	Watchdog      time.Duration
	Remote        string
	Retry         int
	Spool         string
	Record        string
	MetricsFormat string
	MetricsAddr   string
}

// RunFlags builds bwrun's flag set bound to a fresh RunOpts.
func RunFlags(stderr io.Writer) (*flag.FlagSet, *RunOpts) {
	fs := newFlagSet("bwrun", stderr)
	o := &RunOpts{}
	fs.StringVar(&o.Bench, "bench", "", "bundled benchmark name")
	fs.IntVar(&o.Threads, "threads", 4, "SPMD thread count")
	fs.BoolVar(&o.Protect, "protect", false, "enable BLOCKWATCH checking")
	fs.Uint64Var(&o.Seed, "seed", 0, "rnd() seed")
	fs.BoolVar(&o.Quiet, "q", false, "suppress the program output listing")
	fs.BoolVar(&o.Overhead, "overhead", false, "report instrumentation overhead")
	fs.BoolVar(&o.Trace, "trace", false, "print every executed branch to stderr")
	fs.IntVar(&o.QueueCap, "queuecap", 0, "per-thread monitor queue capacity (0 = default)")
	fs.StringVar(&o.Overflow, "overflow", "block", "queue-overflow policy: block | drop-newest | block-timeout")
	fs.IntVar(&o.Batch, "batch", 0, "per-thread event batch size (0 = default, 1 = unbatched)")
	fs.DurationVar(&o.Watchdog, "watchdog", 0, "monitor stall-watchdog deadline (0 = disabled)")
	fs.StringVar(&o.Remote, "remote", "", "bwmonitord address (host:port or unix:/path); implies -protect")
	fs.IntVar(&o.Retry, "retry", 0, "with -remote, dial attempts per outage with backoff (0 = single attempt)")
	fs.StringVar(&o.Spool, "spool", "", "with -remote, disk spillover file replayed on reconnect")
	fs.StringVar(&o.Record, "record", "", "trace file to record the event stream to; implies -protect")
	fs.StringVar(&o.MetricsFormat, "metrics", "", "print the final metrics snapshot to stdout: json | prom")
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /debug/pprof at this address for the run")
	return fs, o
}

func runCommand() Command {
	return Command{
		Name:    "bwrun",
		Summary: "execute a MiniC SPMD program under the interpreter, optionally protected by the monitor",
		Description: "bwrun executes a MiniC SPMD program (or a bundled benchmark) under the " +
			"interpreter, optionally protected by the BLOCKWATCH monitor, and prints the " +
			"program output, simulated-cycle span, and any detections. The monitor can check " +
			"in-process, stream to a bwmonitord daemon (-remote), or record the " +
			"event stream to a bwtrace-replayable trace file (-record).",
		Sections: []Section{{
			Usage: "bwrun [flags] <file.mc>  |  bwrun [flags] -bench <name>",
			Flags: func(stderr io.Writer) *flag.FlagSet { fs, _ := RunFlags(stderr); return fs },
		}},
		Notes: "Exit status: 0 for a clean run, 2 when the monitor detected violations " +
			"(so scripts and CI can gate on detections), 1 for any other error.",
	}
}
