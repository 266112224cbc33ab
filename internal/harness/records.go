package harness

import (
	"strconv"

	"blockwatch/internal/benchstore"
)

// Converters from the campaign drivers' grids to benchstore records.
// Config axes identify a cell across runs (they form the record key),
// so only inputs go there; measured outcomes go in Values or Counters.
// Value names follow the benchstore gating contract: "ns/op" and
// "*/sec" are time-gated, "allocs/op" is alloc-gated, everything else
// is informational. Wall-clock cost of the monitor pipeline is measured
// by bwperf, not here.

// NetFaultRecords converts the campaign grid. Campaign wall-clock is
// dominated by injected stalls, so it is recorded as informational
// elapsed_ms rather than a gated time metric; the outcome counters are
// the artifact's substance.
func NetFaultRecords(points []NetFaultPoint) []benchstore.Record {
	recs := make([]benchstore.Record, 0, len(points))
	for _, p := range points {
		recs = append(recs, benchstore.Record{
			Experiment: "netfault",
			Config: map[string]string{
				"kernel":    p.Program,
				"transport": p.Transport,
			},
			Values: map[string]float64{
				"elapsed_ms": float64(p.Elapsed.Milliseconds()),
			},
			Counters: map[string]uint64{
				"injected":   uint64(p.Injected),
				"fired":      uint64(p.Fired),
				"reconnects": uint64(p.Reconnects),
				"absorbed":   uint64(p.Absorbed),
				"recovered":  uint64(p.Recovered),
				"sealed":     uint64(p.Sealed),
			},
		})
	}
	return recs
}

// DetectorFaultRecords converts the per-kernel campaign rows: outcome
// counters only, since the campaign measures resilience, not speed.
func DetectorFaultRecords(rows []DetectorFaultRow) []benchstore.Record {
	recs := make([]benchstore.Record, 0, len(rows))
	for _, r := range rows {
		recs = append(recs, benchstore.Record{
			Experiment: "detectorfault",
			Config: map[string]string{
				"kernel":  r.Program,
				"threads": strconv.Itoa(r.Threads),
			},
			Counters: map[string]uint64{
				"injected":     uint64(r.Injected),
				"activated":    uint64(r.Activated),
				"benign":       uint64(r.Benign),
				"false_alarms": uint64(r.FalseAlarms),
				"quarantined":  uint64(r.Quarantined),
				"degraded":     uint64(r.Degraded),
			},
		})
	}
	return recs
}
