package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself carries no instrumentation).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Op     int           `json:"op"`     // spans of one op share it
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer started
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory. Spans nest by call order: a span begun
// while another is open becomes its child. All calls come from the
// benchmark's goroutine (a sink's Start and Close run on the goroutine
// that called interp.Run); the mutex only guards against misuse.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp sets the op id stamped on spans begun from now on.
func (t *tracer) setOp(op int) {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// begin opens a span and returns its ID; op < 0 keeps the current op id.
func (t *tracer) begin(name string, op int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if op >= 0 {
		t.op = op
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name, Start: now})
	t.open = append(t.open, id)
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	return s.End - s.Start
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, f func()) time.Duration {
	id := t.begin(name, -1)
	f()
	return t.end(id)
}

// selfTimes returns, per span name, the total self time: each span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curA, curB = x[0], x[1]
		case x[0] > curB:
			total += curB - curA
			curA, curB = x[0], x[1]
		case x[1] > curB:
			curB = x[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// dump writes the spans and the per-name self times to path as JSON.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = ms(d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		SelfMS map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{self, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printSelf writes the self-time table, largest first.
func (t *tracer) printSelf(w io.Writer) {
	t.mu.Lock()
	self := selfTimes(t.spans)
	count := map[string]int{}
	for _, s := range t.spans {
		count[s.Name]++
	}
	t.mu.Unlock()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintln(w, "self time per span name (ms, spans):")
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %12.3f %8d\n", n, ms(self[n]), count[n])
	}
}
