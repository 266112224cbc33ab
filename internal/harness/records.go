package harness

import (
	"strconv"

	"blockwatch/internal/benchstore"
)

// Converters from the perf drivers' point grids to benchstore records.
// Config axes identify a cell across runs (they form the record key),
// so only inputs go there; measured outcomes go in Values or Counters.
// Value names follow the benchstore gating contract: "ns/op" and
// "*/sec" are time-gated, "allocs/op" is alloc-gated, everything else
// is informational.

// perEventNS is elapsed wall-clock per event in nanoseconds.
func perEventNS(elapsedNS int64, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return float64(elapsedNS) / float64(events)
}

// ThroughputRecords converts the Sender batch-size sweep. Every cell
// publishes through a Sender, so mode is always "batch"; the key keeps
// it so records stay comparable with earlier artifacts.
func ThroughputRecords(points []ThroughputPoint) []benchstore.Record {
	recs := make([]benchstore.Record, 0, len(points))
	for _, p := range points {
		recs = append(recs, benchstore.Record{
			Experiment: "throughput",
			Config: map[string]string{
				"mode":  "batch",
				"batch": strconv.Itoa(p.SenderBatch),
			},
			Values: map[string]float64{
				"ns/op":      perEventNS(p.Elapsed.Nanoseconds(), uint64(p.Events)),
				"events/sec": p.EventsPerSec(),
			},
			Counters: benchstore.CounterValues(p.Metrics),
		})
	}
	return recs
}

// RemoteRecords converts the kernel × transport grid.
func RemoteRecords(points []RemotePoint) []benchstore.Record {
	recs := make([]benchstore.Record, 0, len(points))
	for _, p := range points {
		recs = append(recs, benchstore.Record{
			Experiment: "remote",
			Config: map[string]string{
				"kernel":    p.Program,
				"transport": p.Transport,
			},
			Values: map[string]float64{
				"ns/op":      perEventNS(p.Elapsed.Nanoseconds(), p.Events),
				"events/sec": float64(p.Events) / p.Elapsed.Seconds(),
			},
			Counters: map[string]uint64{"events": p.Events},
		})
	}
	return recs
}

// IngestRecords converts the transport × sessions grid. The decode
// scratch-reuse counters carry the artifact's real signal: RxFrames
// tracks coalescing and BufGrows stays at one growth per pooled reader.
func IngestRecords(points []IngestPoint) []benchstore.Record {
	recs := make([]benchstore.Record, 0, len(points))
	for _, p := range points {
		recs = append(recs, benchstore.Record{
			Experiment: "ingest",
			Config: map[string]string{
				"transport": p.Transport,
				"sessions":  strconv.Itoa(p.Sessions),
			},
			Values: map[string]float64{
				"ns/op":      perEventNS(p.Elapsed.Nanoseconds(), p.Events),
				"events/sec": p.EventsPerSec(),
			},
			Counters: map[string]uint64{
				"bw_wire_rx_frames_total":        p.RxFrames,
				"bw_wire_decode_buf_grows_total": p.BufGrows,
				"bw_wire_decode_buf_bytes":       uint64(p.BufBytes),
			},
		})
	}
	return recs
}

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

// FleetRecords converts the members × sessions grid. Placement spread
// is an outcome, not an axis, so it stays out of the record key.
func FleetRecords(points []FleetPoint) []benchstore.Record {
	recs := make([]benchstore.Record, 0, len(points))
	for _, p := range points {
		recs = append(recs, benchstore.Record{
			Experiment: "fleet",
			Config: map[string]string{
				"members":  strconv.Itoa(p.Members),
				"sessions": strconv.Itoa(p.Sessions),
			},
			Values: map[string]float64{
				"ns/op":      perEventNS(p.Elapsed.Nanoseconds(), p.Events),
				"events/sec": p.EventsPerSec(),
			},
			Counters: map[string]uint64{"events": p.Events},
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
