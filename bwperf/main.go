// Command bwperf is the repository benchmark: the wall-clock cost of
// protected SPLASH-2 kernel runs with the monitor in process and out of
// process, and of branch-flip fault campaigns, all driven through the
// root blockwatch facade. See README.md for the workloads and metrics.
//
//	bwperf --workload kernels-local --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 a separate traced run
// times each layer and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

const (
	threads = 2 // SPMD threads per run
)

var workloads = []string{"kernels-local", "kernels-remote", "campaign"}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for the span dump and the daemon socket
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("bwperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "workload: kernels-local, kernels-remote or campaign")
	fs.Int64Var(&c.seed, "seed", 1, "workload seed")
	fs.IntVar(&c.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.StringVar(&c.out, "out", ".bench_build", "directory for run artifacts (span dump)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	known := false
	for _, w := range workloads {
		known = known || w == c.workload
	}
	switch {
	case !known:
		return c, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, workloads)
	case c.seconds < 1:
		return c, errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return c, errors.New("--trace must be 0 or 1")
	}
	c.trace = trace == 1
	return c, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each, with its unit and an
// optional note (a ratio's base, a sample count), as it is added.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func newReport(w io.Writer) *report { return &report{w: w, metrics: map[string]metric{}} }

func (r *report) add(name string, v float64, unit, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	fmt.Fprintf(r.w, "  %-34s %14.6g %-6s %s\n", name, v, unit, note)
}

// addRatio adds a ratio and prints it with its base.
func (r *report) addRatio(name string, q ratio, note string) {
	if note != "" {
		note = " " + note
	}
	r.add(name, q.value(), "ratio", q.String()+note)
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintln(os.Stderr, "bwperf:", err)
		}
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bwperf:", err)
		os.Exit(1)
	}
	var res *result
	if cfg.trace {
		res, err = tracedRun(cfg, os.Stdout)
	} else {
		res, err = endToEnd(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bwperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// endToEnd sets the workload up, runs its closed loop for cfg.seconds
// and reports the end-to-end metrics.
func endToEnd(cfg config, w io.Writer) (*result, error) {
	b, setupS, err := setUpRepeated(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	fmt.Fprintf(w, "workload %s, seed %d, %d s, %d threads, closed loop with one client\n",
		cfg.workload, cfg.seed, cfg.seconds, threads)
	rep := newReport(w)
	rep.add("setup_s", setupS.median, "s", fmt.Sprintf("(median of %d set-ups)", setupS.n))

	lp := b.loop(time.Duration(cfg.seconds)*time.Second, nil)
	b.addEndToEnd(rep, lp)
	for _, r := range lp.ops.reasons {
		fmt.Fprintln(w, "  failed op:", r)
	}
	return &result{
		Correct:   lp.ops.failed == 0,
		Attempted: lp.ops.attempted,
		Failed:    lp.ops.failed,
		Metrics:   rep.metrics,
	}, nil
}

// addEndToEnd reports the metrics of one measured loop.
func (b *bench) addEndToEnd(rep *report, lp *loopStats) {
	secs := lp.wall.Seconds()
	p50, _ := percentile(lp.latMS, 0.5)
	p90, ok := percentile(lp.latMS, 0.9)
	p90note := fmt.Sprintf("(n=%d)", len(lp.latMS))
	if !ok {
		p90note = fmt.Sprintf("(n=%d: fewer than %d samples beyond p90)", len(lp.latMS), tailMin)
	}
	runRate, eventRate := lp.rates()
	segs := fmt.Sprintf("median of %d segments of %v", len(lp.runRates), segmentLen)
	rep.add("runs_per_s", runRate, "1/s",
		fmt.Sprintf("(%s; %d runs in %.3f s)", segs, lp.runs, secs))
	rep.add("events_per_s", eventRate, "1/s",
		fmt.Sprintf("(%s; %d events in %.3f s%s)", segs, lp.events, secs, b.eventsNote()))
	rep.add("op_ms_p50", p50, "ms", fmt.Sprintf("(n=%d)", len(lp.latMS)))
	rep.add("op_ms_p90", p90, "ms", p90note)
	rep.add("heap_mb_peak", lp.heapMB, "MiB", fmt.Sprintf("(median peak of %d windows of 1 s)", lp.heapWindows))
	rep.addRatio("ok_frac", lp.ops.okFrac(), "(ops passing every check / ops)")
	rep.addRatio("coverage", lp.coverage, b.coverageNote())
}
