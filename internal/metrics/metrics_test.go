package metrics

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bw_test_total", "a test counter")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
	if again := r.Counter("bw_test_total", "ignored"); again != c {
		t.Fatalf("second Counter() returned a different handle")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("bw_depth", "a test gauge")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("Value() = %d, want 4", got)
	}
	g.SetMax(10)
	g.SetMax(2) // lower: must not regress
	if got := g.Value(); got != 10 {
		t.Fatalf("after SetMax: Value() = %d, want 10", got)
	}
	if again := r.Gauge("bw_depth", ""); again != g {
		t.Fatalf("second Gauge() returned a different handle")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("bw_sizes", "a test histogram", []int64{1, 10, 100})
	for _, v := range []int64{0, 1, 2, 10, 11, 100, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("Count() = %d, want 7", got)
	}
	if got := h.Sum(); got != 1124 {
		t.Fatalf("Sum() = %d, want 1124", got)
	}
	hv, ok := r.Snapshot().Histogram("bw_sizes")
	if !ok {
		t.Fatalf("snapshot lost the histogram")
	}
	// Buckets: ≤1 gets {0,1}; ≤10 gets {2,10}; ≤100 gets {11,100}; +Inf gets {1000}.
	want := []uint64{2, 2, 2, 1}
	for i, n := range want {
		if hv.Buckets[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hv.Buckets[i], n, hv.Buckets)
		}
	}
	if mean := hv.Mean(); mean != 1124.0/7.0 {
		t.Fatalf("Mean() = %v", mean)
	}
	if again := r.Histogram("bw_sizes", "", []int64{5}); again != h {
		t.Fatalf("second Histogram() returned a different handle")
	}
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []int64{1})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must return nil handles")
	}
	// All of these must be no-ops, not panics.
	c.Add(1)
	c.Inc()
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus: err=%v out=%q", err, buf.String())
	}
	if r.PublishExpvar("bw_nil_registry") {
		t.Fatalf("nil registry must not publish")
	}
}

func TestRegistrationPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("taken", "")
	mustPanic("kind conflict", func() { r.Gauge("taken", "") })
	mustPanic("kind conflict histogram", func() { r.Histogram("taken", "", []int64{1}) })
	mustPanic("invalid name", func() { r.Counter("has space", "") })
	mustPanic("empty name", func() { r.Counter("", "") })
	mustPanic("leading digit", func() { r.Counter("1abc", "") })
	mustPanic("empty bounds", func() { r.Histogram("h1", "", nil) })
	mustPanic("unsorted bounds", func() { r.Histogram("h2", "", []int64{10, 5}) })
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(100, 4, 5)
	want := []int64{100, 400, 1600, 6400, 25600}
	if len(b) != len(want) {
		t.Fatalf("ExpBuckets = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	// Degenerate parameters are clamped, and bounds stay strictly increasing.
	b = ExpBuckets(0, 1.01, 10)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("not strictly increasing: %v", b)
		}
	}
}

func TestSnapshotAccessors(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "").Add(3)
	r.Gauge("g", "").Set(-5)
	r.Histogram("h", "", []int64{10}).Observe(4)
	s := r.Snapshot()
	if v, ok := s.Counter("c"); !ok || v != 3 {
		t.Fatalf("Counter(c) = %d,%t", v, ok)
	}
	if v, ok := s.Gauge("g"); !ok || v != -5 {
		t.Fatalf("Gauge(g) = %d,%t", v, ok)
	}
	if _, ok := s.Counter("missing"); ok {
		t.Fatalf("found a counter that does not exist")
	}
	if _, ok := s.Gauge("missing"); ok {
		t.Fatalf("found a gauge that does not exist")
	}
	if _, ok := s.Histogram("missing"); ok {
		t.Fatalf("found a histogram that does not exist")
	}
	if m := (HistogramValue{}).Mean(); m != 0 {
		t.Fatalf("empty Mean() = %v", m)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("bw_events_total", "events drained").Add(12)
	r.Gauge("bw_queue_depth", "high water\nmark").Set(9)
	h := r.Histogram("bw_batch_size", "batch sizes", []int64{1, 64})
	h.Observe(1)
	h.Observe(50)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP bw_events_total events drained\n",
		"# TYPE bw_events_total counter\n",
		"bw_events_total 12\n",
		"# HELP bw_queue_depth high water mark\n", // newline in help flattened
		"# TYPE bw_queue_depth gauge\n",
		"bw_queue_depth 9\n",
		"# TYPE bw_batch_size histogram\n",
		"bw_batch_size_bucket{le=\"1\"} 1\n",
		"bw_batch_size_bucket{le=\"64\"} 2\n",
		"bw_batch_size_bucket{le=\"+Inf\"} 3\n",
		"bw_batch_size_sum 551\n",
		"bw_batch_size_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help").Add(1)
	r.Histogram("h", "", []int64{2}).Observe(1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("round trip: %v\n%s", err, buf.String())
	}
	if v, ok := s.Counter("c"); !ok || v != 1 {
		t.Fatalf("JSON round trip lost counter c: %+v", s)
	}
	if hv, ok := s.Histogram("h"); !ok || hv.Count != 1 {
		t.Fatalf("JSON round trip lost histogram h: %+v", s)
	}
}

// publishes numbers TestPublishExpvar's expvar names: expvar names are
// process-global, so every invocation (go test -count=N) needs its own.
var publishes atomic.Int64

func TestPublishExpvar(t *testing.T) {
	name := fmt.Sprintf("blockwatch_test_metrics_%d", publishes.Add(1))
	r := NewRegistry()
	r.Counter("bw_pub_total", "").Add(5)
	if !r.PublishExpvar(name) {
		t.Fatalf("first publish failed")
	}
	// Duplicate publish must be a refusal, not an expvar panic.
	if r.PublishExpvar(name) {
		t.Fatalf("duplicate publish succeeded")
	}
	if r.PublishExpvar("") {
		t.Fatalf("empty-name publish succeeded")
	}
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar.Get returned nil after publish")
	}
	if !strings.Contains(v.String(), "bw_pub_total") {
		t.Fatalf("expvar value missing metric: %s", v.String())
	}
}
