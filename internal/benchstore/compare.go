package benchstore

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// DefaultTimeTol is the default relative tolerance on time-derived
// metrics (ns/op, */sec): a change past it in the bad direction is a
// regression.
const DefaultTimeTol = 0.10

// CompareOptions tunes the gating rules.
type CompareOptions struct {
	// TimeTol is the relative tolerance for time-derived metrics
	// (0 selects DefaultTimeTol).
	TimeTol float64
	// SkipTime reports time-derived metrics without gating them — the
	// mode for cross-machine comparisons, where wall-clock numbers carry
	// no signal but allocs/op and record structure still do.
	SkipTime bool
}

// metricClass is how Compare treats one metric name.
type metricClass int

const (
	classInfo       metricClass = iota // reported, never gated
	classAlloc                         // any increase is a regression
	classTimeLower                     // time-derived, lower is better
	classTimeHigher                    // time-derived rate, higher is better
)

// classify maps a metric name to its gating class. The names are the
// contract between the experiment drivers and the gate: drivers that
// want a metric gated must use one of these shapes.
func classify(name string) metricClass {
	switch {
	case name == "allocs/op":
		return classAlloc
	case name == "ns/op", strings.HasSuffix(name, "_ns"):
		return classTimeLower
	case strings.HasSuffix(name, "/sec"):
		return classTimeHigher
	}
	return classInfo
}

// Delta statuses.
const (
	StatusOK          = "ok"
	StatusRegression  = "regression"
	StatusImprovement = "improvement"
	StatusNew         = "new"     // present in head only
	StatusMissing     = "missing" // present in base only
	StatusInfo        = "info"    // ungated metric that changed
)

// MetricDelta is one metric of one record, base vs head.
type MetricDelta struct {
	Key    string // record key
	Metric string
	Base   float64
	Head   float64
	// Delta is the relative change (head-base)/base; NaN when base is 0
	// or the metric is missing on either side.
	Delta  float64
	Status string
	// Gated marks metrics whose Status can fail the comparison.
	Gated bool
}

// Comparison is the full base-vs-head delta set.
type Comparison struct {
	Deltas      []MetricDelta
	Regressions int // gated metrics that got worse
	Missing     int // records or gated metrics lost from head
	NewRecords  int // records present in head only
}

// Failed reports whether the comparison should gate a change: any
// regression, or any base record/gated metric missing from head.
func (c *Comparison) Failed() bool {
	return c.Regressions > 0 || c.Missing > 0
}

// Compare evaluates head against base record by record. Only Values
// participate; Counters are context carried by the artifacts, not
// gates.
func Compare(base, head *File, opts CompareOptions) *Comparison {
	if opts.TimeTol == 0 {
		opts.TimeTol = DefaultTimeTol
	}
	headByKey := make(map[string]Record, len(head.Records))
	for _, r := range head.Records {
		headByKey[r.Key()] = r
	}
	baseKeys := make(map[string]bool, len(base.Records))

	c := &Comparison{}
	for _, b := range base.Records {
		key := b.Key()
		baseKeys[key] = true
		h, ok := headByKey[key]
		if !ok {
			c.Missing++
			c.Deltas = append(c.Deltas, MetricDelta{
				Key: key, Metric: "(record)", Delta: math.NaN(),
				Status: StatusMissing, Gated: true,
			})
			continue
		}
		c.compareRecord(key, b, h, opts)
	}
	// Head-only records: informational.
	var newKeys []string
	for key := range headByKey {
		if !baseKeys[key] {
			newKeys = append(newKeys, key)
		}
	}
	sort.Strings(newKeys)
	for _, key := range newKeys {
		c.NewRecords++
		c.Deltas = append(c.Deltas, MetricDelta{
			Key: key, Metric: "(record)", Delta: math.NaN(), Status: StatusNew,
		})
	}
	return c
}

// compareRecord emits deltas for every metric of one matched record
// pair, in sorted metric order.
func (c *Comparison) compareRecord(key string, base, head Record, opts CompareOptions) {
	names := make([]string, 0, len(base.Values)+len(head.Values))
	for n := range base.Values {
		names = append(names, n)
	}
	for n := range head.Values {
		if _, ok := base.Values[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	for _, name := range names {
		bv, inBase := base.Values[name]
		hv, inHead := head.Values[name]
		class := classify(name)
		gated := class != classInfo && !(opts.SkipTime && (class == classTimeLower || class == classTimeHigher))
		d := MetricDelta{Key: key, Metric: name, Base: bv, Head: hv, Delta: math.NaN(), Gated: gated}
		switch {
		case !inHead:
			// A gated metric vanishing from head is lost coverage even in
			// SkipTime mode: the record structure must match the baseline.
			d.Status = StatusMissing
			if class != classInfo {
				d.Gated = true
				c.Missing++
			}
		case !inBase:
			d.Status = StatusNew
		default:
			if bv != 0 {
				d.Delta = (hv - bv) / bv
			}
			d.Status = metricStatus(class, bv, hv, d.Delta, opts)
			if !gated && class != classInfo && d.Status != StatusOK {
				d.Status = StatusInfo // time metric under SkipTime: report, don't gate
			}
			if d.Gated && d.Status == StatusRegression {
				c.Regressions++
			}
		}
		c.Deltas = append(c.Deltas, d)
	}
}

// metricStatus applies the class's gating rule to one base/head pair.
func metricStatus(class metricClass, base, head, delta float64, opts CompareOptions) string {
	switch class {
	case classAlloc:
		switch {
		case head > base:
			return StatusRegression
		case head < base:
			return StatusImprovement
		}
		return StatusOK
	case classTimeLower:
		if math.IsNaN(delta) {
			// base 0: only a head move away from 0 is a change.
			if head > 0 {
				return StatusRegression
			}
			return StatusOK
		}
		switch {
		case delta > opts.TimeTol:
			return StatusRegression
		case delta < -opts.TimeTol:
			return StatusImprovement
		}
		return StatusOK
	case classTimeHigher:
		if math.IsNaN(delta) {
			return StatusOK
		}
		switch {
		case delta < -opts.TimeTol:
			return StatusRegression
		case delta > opts.TimeTol:
			return StatusImprovement
		}
		return StatusOK
	}
	if base != head {
		return StatusInfo
	}
	return StatusOK
}

// Render writes the benchstat-style delta table.
func (c *Comparison) Render(w io.Writer) {
	fmt.Fprintf(w, "%-58s %-12s %14s %14s %9s  %s\n",
		"experiment", "metric", "base", "head", "delta", "status")
	for _, d := range c.Deltas {
		status := d.Status
		if d.Gated && (d.Status == StatusRegression || d.Status == StatusMissing) {
			status = strings.ToUpper(status)
		}
		fmt.Fprintf(w, "%-58s %-12s %14s %14s %9s  %s\n",
			d.Key, d.Metric, renderValue(d.Base, d.Status == StatusNew),
			renderValue(d.Head, d.Status == StatusMissing), renderDelta(d.Delta), status)
	}
	fmt.Fprintf(w, "\n%d metric(s) compared: %d regression(s), %d missing, %d new record(s)\n",
		len(c.Deltas), c.Regressions, c.Missing, c.NewRecords)
}

// renderValue formats one side of a delta ("-" for the absent side of
// new/missing rows).
func renderValue(v float64, absent bool) string {
	if absent {
		return "-"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

// renderDelta formats the relative change column.
func renderDelta(delta float64) string {
	if math.IsNaN(delta) {
		return "~"
	}
	return fmt.Sprintf("%+.1f%%", 100*delta)
}
