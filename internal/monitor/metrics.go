package monitor

import (
	"blockwatch/internal/metrics"
)

// Metric names exported by the monitor pipeline. All handles come from
// the metrics package's nil-handle pattern: with no registry attached
// every update is a single nil-check branch, and the sites that need a
// timestamp guard on the handle so time.Now is never called detached.
//
// Counting is per-batch where it matters: events and batch sizes are
// recorded once per drained batch (not per event), which is what keeps the instrumented hot path within
// the <3% throughput budget.

// checkerMetrics is the checker's handle set (zero value = detached):
// what a Monitor and a bare Checker (a daemon session, a replay) both
// report.
type checkerMetrics struct {
	quarantined *metrics.Counter   // bw_monitor_quarantined_total
	events      *metrics.Counter   // bw_monitor_events_total
	batches     *metrics.Counter   // bw_monitor_batches_total
	flushes     *metrics.Counter   // bw_monitor_flushes_total
	batchSize   *metrics.Histogram // bw_monitor_batch_size
	genCloseNs  *metrics.Histogram // bw_monitor_gen_close_ns
	mergeNs     *metrics.Histogram // bw_monitor_merge_ns
	probeCloses *metrics.Counter   // bw_monitor_probe_closes_total
}

// monMetrics is the handle set of a Monitor's concurrent front end
// (zero value = detached): bw_monitor_drops_total, bw_sender_flush_size,
// bw_monitor_parks_total and the queue-depth high-water mark.
type monMetrics struct {
	frontEndMetrics
	queueHWM *metrics.Gauge // bw_monitor_queue_depth_hwm
}

// batchSizeBounds covers 1..drainBatch (256) in powers of two; flush
// sizes share the shape (SenderBatch defaults to 64).
var batchSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

func senderFlushHistogram(r *metrics.Registry) *metrics.Histogram {
	return r.Histogram("bw_sender_flush_size",
		"branch events published per Sender flush", batchSizeBounds)
}

func newCheckerMetrics(r *metrics.Registry) checkerMetrics {
	if r == nil {
		return checkerMetrics{}
	}
	return checkerMetrics{
		quarantined: r.Counter("bw_monitor_quarantined_total",
			"malformed, stale, or straggler events skipped"),
		events: r.Counter("bw_monitor_events_total",
			"events (branch and control) checked in place"),
		batches: r.Counter("bw_monitor_batches_total",
			"in-place batches checked (a drained ring run, or a fed frame)"),
		flushes: r.Counter("bw_monitor_flushes_total",
			"barrier-generation flushes (including forced and overflow closes)"),
		batchSize: r.Histogram("bw_monitor_batch_size",
			"events per in-place batch", batchSizeBounds),
		genCloseNs: r.Histogram("bw_monitor_gen_close_ns",
			"latency of closing one barrier generation, ns",
			metrics.ExpBuckets(1000, 4, 10)),
		mergeNs: r.Histogram("bw_monitor_merge_ns",
			"violation sort-and-publish time per generation close, ns",
			metrics.ExpBuckets(250, 4, 10)),
		probeCloses: r.Counter("bw_monitor_probe_closes_total",
			"generations closed early because an instance-index probe passed its cap (colliding keys)"),
	}
}

func newMonMetrics(r *metrics.Registry) monMetrics {
	if r == nil {
		return monMetrics{}
	}
	return monMetrics{
		frontEndMetrics: frontEndMetrics{
			drops: r.Counter("bw_monitor_drops_total",
				"branch events dropped by the overflow policy"),
			flushSize: senderFlushHistogram(r),
			parks: r.Counter("bw_monitor_parks_total",
				"times the idle monitor goroutine parked until a Sender published"),
		},
		queueHWM: r.Gauge("bw_monitor_queue_depth_hwm",
			"per-thread front-end queue depth high-water mark"),
	}
}

// relayMetrics is the relay's handle set (zero value = detached). The
// front-end handles are bw_relay_drops_total, bw_relay_quarantined_total,
// bw_sender_flush_size and bw_relay_parks_total.
type relayMetrics struct {
	frontEndMetrics
	quarantined *metrics.Counter // bw_relay_quarantined_total
	events      *metrics.Counter // bw_relay_events_total
	batches     *metrics.Counter // bw_relay_batches_total
	control     *metrics.Counter // bw_relay_control_total
	degraded    *metrics.Counter // bw_relay_degraded_total
}

func newRelayMetrics(r *metrics.Registry) relayMetrics {
	if r == nil {
		return relayMetrics{}
	}
	return relayMetrics{
		frontEndMetrics: frontEndMetrics{
			drops: r.Counter("bw_relay_drops_total",
				"branch events discarded after a stream failure or overflow"),
			flushSize: senderFlushHistogram(r),
			parks: r.Counter("bw_relay_parks_total",
				"times the idle relay goroutine parked until a Sender published or a stream duty fell due"),
		},
		quarantined: r.Counter("bw_relay_quarantined_total",
			"malformed events skipped by the relay"),
		events: r.Counter("bw_relay_events_total",
			"branch events forwarded to the relay's stream"),
		batches: r.Counter("bw_relay_batches_total",
			"StreamEvents calls (contiguous branch-event runs) forwarded"),
		control: r.Counter("bw_relay_control_total",
			"control markers (flush/done) forwarded to the stream"),
		degraded: r.Counter("bw_relay_degraded_total",
			"stream failures that switched the relay into discard mode"),
	}
}
