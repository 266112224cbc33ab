package cliref

import (
	"flag"
	"io"
)

// InjectOpts carries bwinject's parsed flags.
type InjectOpts struct {
	Bench         string
	Threads       int
	Faults        int
	Type          string
	Transport     string
	Members       int
	NoSpool       bool
	Seed          int64
	Workers       int
	Progress      bool
	MetricsFormat string
	MetricsAddr   string
}

// InjectFlags builds bwinject's flag set bound to a fresh InjectOpts.
func InjectFlags(stderr io.Writer) (*flag.FlagSet, *InjectOpts) {
	fs := newFlagSet("bwinject", stderr)
	o := &InjectOpts{}
	fs.StringVar(&o.Bench, "bench", "", "bundled benchmark name")
	fs.IntVar(&o.Threads, "threads", 4, "thread count")
	fs.IntVar(&o.Faults, "faults", 1000, "faults per campaign")
	fs.StringVar(&o.Type, "type", "branch-flip", "branch-flip | branch-condition | event-path | net-fault")
	fs.StringVar(&o.Transport, "transport", "tcp", "net-fault transport: tcp | unix")
	fs.IntVar(&o.Members, "members", 1, "net-fault fleet size (≥2 adds daemon-kill faults)")
	fs.BoolVar(&o.NoSpool, "no-spool", false, "net-fault: disable the disk spillover (fail-open only)")
	fs.Int64Var(&o.Seed, "seed", 1, "campaign seed")
	fs.IntVar(&o.Workers, "workers", 0, "concurrent faulty runs (0 = all cores)")
	fs.BoolVar(&o.Progress, "progress", false, "print live progress to stderr")
	fs.StringVar(&o.MetricsFormat, "metrics", "", "print the aggregated metrics snapshot to stdout: json | prom")
	fs.StringVar(&o.MetricsAddr, "metrics-addr", "", "serve /metrics, /healthz, /debug/pprof at this address for the campaign")
	return fs, o
}

func injectCommand() Command {
	return Command{
		Name:    "bwinject",
		Summary: "run the paper's fault-injection methodology on one program",
		Description: "bwinject runs the Section IV fault-injection methodology on one program: a " +
			"profiling run, uniform sampling of (thread, dynamic branch) targets, one fault " +
			"per run, and outcome classification into benign / detected / crash / hang / SDC. " +
			"It reports the paper's coverage metric (1 − SDC/activated) with and without " +
			"BLOCKWATCH. -type event-path corrupts the monitor's own queued events; -type " +
			"net-fault injects transport failures into remote monitoring sessions and " +
			"verifies the self-healing contract (no hangs, no crashes, no lost verdicts).",
		Sections: []Section{{
			Usage: "bwinject [flags] <file.mc>  |  bwinject [flags] -bench <name>",
			Flags: func(stderr io.Writer) *flag.FlagSet { fs, _ := InjectFlags(stderr); return fs },
		}},
		Notes: "A net-fault campaign exits nonzero when the self-healing contract is violated, " +
			"so scripts and CI fail on a lost verdict.",
	}
}
