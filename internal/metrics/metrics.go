// Package metrics is a small, allocation-conscious metrics registry for
// the BLOCKWATCH runtime: atomic counters, gauges, and fixed-bucket
// histograms with snapshot semantics, a Prometheus-style text exposition
// writer, a JSON dump, and expvar publication.
//
// The package is built around the nil-handle pattern: every constructor
// on a nil *Registry returns a nil handle, and every mutation method on
// a nil handle is a no-op. Instrumented code therefore calls
// counter.Add(n) unconditionally — when no registry is attached the call
// is a single nil-check branch, which is what lets the monitor's hot
// path carry instrumentation at near-zero cost. Sites that must pay for
// a timestamp (histogram latency observations) guard on the handle
// explicitly (if h != nil { t0 = time.Now() }) so time.Now is never
// called for a detached registry.
//
// All observed values are integers (nanoseconds, bytes, batch sizes);
// histogram bucket bounds are int64 upper bounds plus an implicit +Inf
// bucket, and every update is a plain atomic add — snapshots taken
// concurrently with writers are monotonic but not cross-metric
// consistent, the same contract monitor.Stats already has.
package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. The zero value is not usable; create
// with NewRegistry. A nil *Registry is the detached state: all three
// constructors return nil handles whose methods no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// validName rejects names that would corrupt the exposition format.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
		default:
			return false
		}
	}
	return name[0] < '0' || name[0] > '9'
}

// Counter returns the named counter, creating it on first use. Calling
// on a nil registry returns nil (whose methods no-op). Registering the
// same name as a different metric kind panics: that is a programming
// error at wiring time, like expvar's duplicate publish.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-registry
// behavior mirrors Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given sorted upper bounds (an implicit +Inf bucket is appended).
// Re-requesting an existing histogram ignores bounds; the first
// registration wins. Nil-registry behavior mirrors Counter.
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	if !validName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not strictly increasing", name))
		}
	}
	h := &Histogram{
		name:    name,
		help:    help,
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
	r.histograms[name] = h
	return h
}

// checkFree panics if name is already registered as another kind.
// Caller holds r.mu.
func (r *Registry) checkFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a counter, requested as %s", name, kind))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a gauge, requested as %s", name, kind))
	}
	if _, ok := r.histograms[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered as a histogram, requested as %s", name, kind))
	}
}

// Counter is a monotonically increasing atomic counter. The nil handle
// (from a nil registry) no-ops.
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil handle no-ops.
type Gauge struct {
	v    atomic.Int64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// SetMax raises the gauge to v if v is larger (a high-water mark);
// concurrent SetMax calls converge on the maximum.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on the nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram over int64 observations. Bucket
// i counts observations ≤ bounds[i]; the final bucket is +Inf. The nil
// handle no-ops.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	name    string
	help    string
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Bucket count is small and fixed (≤ ~20); a linear scan beats a
	// binary search at these sizes and keeps the loop branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on the nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on the nil handle).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// ExpBuckets builds n strictly increasing bucket bounds starting at
// start, multiplying by factor (> 1) at each step: the standard shape
// for latency (ns) and size distributions.
func ExpBuckets(start int64, factor float64, n int) []int64 {
	if start < 1 {
		start = 1
	}
	if factor <= 1 {
		factor = 2
	}
	if n < 1 {
		n = 1
	}
	out := make([]int64, 0, n)
	v := float64(start)
	last := int64(0)
	for len(out) < n {
		b := int64(v)
		if b <= last {
			b = last + 1
		}
		out = append(out, b)
		last = b
		v *= factor
	}
	return out
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Help  string `json:"help,omitempty"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Buckets holds
// per-bucket (non-cumulative) counts; Buckets[len(Bounds)] is the +Inf
// bucket.
type HistogramValue struct {
	Name    string   `json:"name"`
	Help    string   `json:"help,omitempty"`
	Bounds  []int64  `json:"bounds"`
	Buckets []uint64 `json:"buckets"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
}

// Mean returns the average observation (0 for an empty histogram).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a point-in-time copy of every registered metric, sorted
// by name within each kind.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Counter returns the named counter's value in the snapshot (0, false
// when absent).
func (s *Snapshot) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the named gauge's value in the snapshot.
func (s *Snapshot) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram in the snapshot.
func (s *Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Snapshot copies every metric's current value. Safe to call at any
// time, concurrently with writers; a nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	histograms := make([]*Histogram, 0, len(r.histograms))
	for _, h := range r.histograms {
		histograms = append(histograms, h)
	}
	r.mu.Unlock()
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Help: c.help, Value: c.v.Load()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Help: g.help, Value: g.v.Load()})
	}
	for _, h := range histograms {
		hv := HistogramValue{
			Name:    h.name,
			Help:    h.help,
			Bounds:  h.bounds,
			Buckets: make([]uint64, len(h.buckets)),
			Count:   h.count.Load(),
			Sum:     h.sum.Load(),
		}
		for i := range h.buckets {
			hv.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hv)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (v0.0.4): HELP/TYPE headers, counter/gauge samples, and
// cumulative histogram buckets with _sum and _count series.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, c := range s.Counters {
		writeHeader(&b, c.Name, c.Help, "counter")
		fmt.Fprintf(&b, "%s %d\n", c.Name, c.Value)
	}
	for _, g := range s.Gauges {
		writeHeader(&b, g.Name, g.Help, "gauge")
		fmt.Fprintf(&b, "%s %d\n", g.Name, g.Value)
	}
	for _, h := range s.Histograms {
		writeHeader(&b, h.Name, h.Help, "histogram")
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", h.Name, bound, cum)
		}
		cum += h.Buckets[len(h.Bounds)]
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", h.Name, cum)
		fmt.Fprintf(&b, "%s_sum %d\n", h.Name, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", h.Name, h.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// WritePrometheus snapshots the registry and writes the exposition
// text. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WriteJSON snapshots the registry and writes an indented JSON dump.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// PublishExpvar publishes the registry under the given expvar name as a
// lazily snapshotted variable. Publishing an already-taken name is a
// no-op returning false (expvar panics on duplicates; a daemon that
// restarts its admin listener must not crash re-publishing). A nil
// registry publishes nothing.
func (r *Registry) PublishExpvar(name string) bool {
	if r == nil || name == "" || expvar.Get(name) != nil {
		return false
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
	return true
}
