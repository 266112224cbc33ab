package main

import (
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blockwatch"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	v, ok := percentile(xs, 0.9)
	if v != 90 || !ok {
		t.Fatalf("p90 of 1..100 = %v, ok=%v; want 90, true", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Fatal("p90 of 99 samples has only 9 beyond it, but was accepted")
	}
	if v, ok := percentile([]float64{5, 1, 4, 2, 3}, 0.5); v != 3 || ok {
		t.Fatalf("p50 of 1..5 = %v, ok=%v; want 3, false", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples accepted")
	}
	if xs[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{5}, 5}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRatioPrintsItsBase(t *testing.T) {
	if got := (ratio{3, 4}).String(); got != "0.75 (= 3 / 4)" {
		t.Fatalf("ratio prints %q", got)
	}
	if (ratio{1, 0}).value() != 0 {
		t.Fatal("ratio over an empty base is not 0")
	}
	var sb strings.Builder
	newReport(&sb).addRatio("x", ratio{1, 8}, "")
	if !strings.Contains(sb.String(), "(= 1 / 8)") {
		t.Fatalf("report line lacks the base: %q", sb.String())
	}
}

// TestEndToEndPrintsEveryMetric checks the end-to-end report: every
// metric with its unit, the sample count beside the tail, and a flag
// when the tail has too few samples beyond it.
func TestEndToEndPrintsEveryMetric(t *testing.T) {
	var sb strings.Builder
	b := &bench{workload: "kernels-local"}
	lp := &loopStats{wall: time.Second, latMS: make([]float64, 50), runs: 50, ops: opCounter{attempted: 50}}
	rep := newReport(&sb)
	b.addEndToEnd(rep, lp)
	out := sb.String()
	if !strings.Contains(out, "n=50: fewer than 10 samples beyond p90") {
		t.Fatalf("short tail not flagged:\n%s", out)
	}
	for _, name := range []string{"runs_per_s", "events_per_s", "op_ms_p50", "op_ms_p90", "heap_mb_peak", "ok_frac", "coverage"} {
		m, ok := rep.metrics[name]
		if !ok || m.Unit == "" {
			t.Errorf("metric %s missing or without unit", name)
		}
		if !strings.Contains(out, name) {
			t.Errorf("metric %s not printed", name)
		}
	}
}

// TestHeapSamplerWindows feeds the sampler a scripted heap and checks it
// keeps the peak of each window.
func TestHeapSamplerWindows(t *testing.T) {
	h := &heapSampler{window: time.Second, since: time.Unix(0, 0)}
	var cur uint64
	h.read = func() uint64 { return cur }
	at := func(ms int, mib uint64) {
		cur = mib << 20
		h.sample(time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond))
	}
	// Window peaks: 4, 10, 6 MiB (a window closes on its last sample).
	at(100, 1)
	at(500, 4)
	at(1000, 2)
	at(1500, 10)
	at(2000, 3)
	at(2500, 6)
	at(3000, 5)
	want := []uint64{4 << 20, 10 << 20, 6 << 20}
	if len(h.peaks) != len(want) {
		t.Fatalf("got %d windows, want %d", len(h.peaks), len(want))
	}
	for i, p := range h.peaks {
		if p != want[i] {
			t.Errorf("window %d peak %d, want %d", i, p, want[i])
		}
	}
}

func TestHeapSamplerStops(t *testing.T) {
	var reads atomic.Int64
	h := startHeapSampler(time.Millisecond, 5*time.Millisecond, func() uint64 {
		reads.Add(1)
		return 3 << 20
	})
	time.Sleep(30 * time.Millisecond)
	mb, windows := h.finish()
	if mb != 3 || windows < 1 {
		t.Fatalf("finish = %v MiB over %d windows, want 3 MiB", mb, windows)
	}
	n := reads.Load()
	time.Sleep(10 * time.Millisecond)
	if reads.Load() != n {
		t.Fatal("sampler kept reading after finish")
	}
	if readHeap() == 0 {
		t.Fatal("runtime heap metric reads 0")
	}
}

func cleanResult() (*reference, *blockwatch.RunResult) {
	ref := &reference{output: []uint64{1, 2, 3}}
	return ref, &blockwatch.RunResult{Output: []uint64{1, 2, 3}, Health: "healthy"}
}

// TestDoctoredRunsCountAsFailed feeds the op checks results that are
// wrong in one way each and checks every one is counted as a failure.
func TestDoctoredRunsCountAsFailed(t *testing.T) {
	doctor := map[string]func(*blockwatch.RunResult){
		"wrong output":       func(r *blockwatch.RunResult) { r.Output = []uint64{1, 2, 4} },
		"short output":       func(r *blockwatch.RunResult) { r.Output = r.Output[:2] },
		"spurious violation": func(r *blockwatch.RunResult) { r.Detected, r.Violations = true, []string{"branch 7"} },
		"violation only":     func(r *blockwatch.RunResult) { r.Violations = []string{"branch 7"} },
		"degraded health":    func(r *blockwatch.RunResult) { r.Health = "degraded" },
		"dropped events":     func(r *blockwatch.RunResult) { r.DroppedEvents = 1 },
		"quarantined events": func(r *blockwatch.RunResult) { r.QuarantinedEvents = 2 },
		"watchdog fire":      func(r *blockwatch.RunResult) { r.WatchdogFires = 1 },
		"crash":              func(r *blockwatch.RunResult) { r.Crashed = true },
		"hang":               func(r *blockwatch.RunResult) { r.Hung = true },
	}
	var c opCounter
	for name, f := range doctor {
		ref, got := cleanResult()
		f(got)
		err := checkClean(ref, got)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		c.record(err)
		if err := checkRemote(ref, got); err == nil {
			t.Errorf("%s: accepted by the remote check", name)
		}
	}
	ref, got := cleanResult()
	c.record(checkClean(ref, got))
	if c.attempted != len(doctor)+1 || c.failed != len(doctor) {
		t.Fatalf("counted %d failed of %d, want %d of %d", c.failed, c.attempted, len(doctor), len(doctor)+1)
	}
	if q := c.okFrac(); q.num != 1 || q.den != float64(len(doctor)+1) {
		t.Fatalf("okFrac = %v", q)
	}
}

func TestRemoteChecks(t *testing.T) {
	ref, got := cleanResult()
	if err := checkRemote(ref, got); err != nil {
		t.Fatalf("clean remote run rejected: %v", err)
	}
	for name, f := range map[string]func(*blockwatch.RunResult){
		"reconnect":    func(r *blockwatch.RunResult) { r.RemoteReconnects = 1 },
		"sealed spool": func(r *blockwatch.RunResult) { r.SealedTrace = "x.spool" },
	} {
		ref, got := cleanResult()
		f(got)
		if err := checkRemote(ref, got); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A remote verdict must match the in-process one, whatever it was.
	ref, got = cleanResult()
	ref.detected, ref.violations = true, []string{"v"}
	if err := checkRemote(ref, got); err == nil {
		t.Error("remote verdict differing from the in-process one accepted")
	}
}

func TestCampaignTallyMustRepeat(t *testing.T) {
	first := tally{Injected: 10, Activated: 9, Detected: 5, SDC: 2, Benign: 2}
	if err := checkCampaign(first, first); err != nil {
		t.Fatal(err)
	}
	moved := first
	moved.SDC, moved.Detected = 3, 4
	if err := checkCampaign(first, moved); err == nil {
		t.Fatal("changed tally accepted")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "start", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Name: "close", Start: 2 * ms, End: 5 * ms}, // overlaps start
		{ID: 4, Parent: 1, Name: "tail", Start: 9 * ms, End: 12 * ms}, // clipped to the parent
	}
	self := selfTimes(spans)
	if self["run"] != 5*ms {
		t.Fatalf("run self time %v, want 5ms", self["run"])
	}
	if self["close"] != 3*ms {
		t.Fatalf("close self time %v, want 3ms", self["close"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("op", 7)
	inner := tr.begin("inner", -1)
	tr.end(inner)
	tr.end(outer)
	next := tr.begin("next", -1)
	tr.end(next)
	if s := tr.spans[inner-1]; s.Parent != outer || s.Op != 7 {
		t.Fatalf("inner span %+v: want parent %d, op 7", s, outer)
	}
	if s := tr.spans[next-1]; s.Parent != 0 {
		t.Fatalf("span begun after its sibling closed has parent %d", s.Parent)
	}
	if err := tr.dump(t.TempDir() + "/spans.json"); err != nil {
		t.Fatal(err)
	}
}

func TestParseFlags(t *testing.T) {
	c, err := parseFlags([]string{"--workload", "campaign", "--seed", "4", "--seconds", "3", "--trace", "1"}, io.Discard)
	if err != nil || c.workload != "campaign" || c.seed != 4 || c.seconds != 3 || !c.trace {
		t.Fatalf("parse = %+v, %v", c, err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "campaign", "--trace", "2"},
		{"--workload", "campaign", "--seconds", "0"},
		{"--bogus"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
