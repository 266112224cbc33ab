package monitor

import (
	"errors"
	"sort"
	"sync/atomic"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/metrics"
	"blockwatch/internal/queue"
)

// DefaultQueueCap is the per-thread front-end queue capacity. The paper
// sets "a sufficiently large value to prevent it from being a bottleneck".
const DefaultQueueCap = 1 << 14

// drainBatch bounds the number of events one queue may contribute per
// drain round (fairness), and so the length of one in-place Peek.
const drainBatch = 256

// Config configures a Monitor.
type Config struct {
	// NumThreads is the number of program threads that will send events.
	NumThreads int
	// Plans maps static branch ID → check plan (from core.Analyze).
	Plans map[int]*core.CheckPlan
	// QueueCap overrides the per-thread queue capacity (0 = default).
	// For a Checker it bounds the events buffered for one gated thread.
	QueueCap int
	// CheckingDisabled makes the monitor drain events without storing or
	// checking them — the paper's configuration for the 32-thread
	// performance runs ("the monitor does not do anything with the
	// information").
	CheckingDisabled bool
	// MaxInstances bounds the back-end table (0 = DefaultMaxInstances).
	// When a run floods the table — only possible when an injected fault
	// sends a thread into a runaway loop — pending instances are checked
	// and the table is cleared, exactly like a forced generation flush.
	// The paper similarly fixes its queue lengths; an unbounded table
	// would let a faulty thread exhaust memory before hang detection.
	// It also caps the Key1 bindings, which last for the run: the
	// reports of a Key1 bound past the cap are quarantined.
	MaxInstances int
	// Overflow selects the Sender overflow policy for branch events
	// (zero value = OverflowBlock, the paper's lossless behavior).
	Overflow OverflowPolicy
	// SenderBatch is the per-thread Sender buffer size: branch events are
	// batched locally and pushed with one queue publish (0 = default,
	// 1 = effectively unbatched). See Sender.
	SenderBatch int
	// StallDeadline, when positive, arms the stall watchdog: if the
	// monitor makes no progress for this long while work is pending
	// (gated queue backlog or open instances), it force-closes the
	// current barrier generation — checking what can be checked, clearing
	// the table, and ungating queues — so a thread that hangs without
	// sending EvDone bounds memory and never livelocks producers. A
	// Checker, which has no timer, evaluates it as each input arrives.
	StallDeadline time.Duration
	// Now overrides the watchdog clock (nil = time.Now). Tests drive the
	// watchdog deterministically with a virtual clock.
	Now func() time.Time
	// EventTap, when non-nil, is invoked on every event just before it
	// is processed, on the goroutine that checks it (a Monitor's, or the
	// one feeding a Checker). Fault injection uses it to corrupt the
	// event path (bit-flips in queued Event payloads); it must not block.
	EventTap func(*Event)
	// Metrics, when non-nil, receives the monitor's pipeline metrics
	// (bw_monitor_* and bw_sender_flush_size). A nil registry compiles
	// the instrumentation down to nil-check branches on the hot path;
	// detection results are identical either way.
	Metrics *metrics.Registry
}

// DefaultMaxInstances bounds the monitor's back-end table.
const DefaultMaxInstances = 1 << 20

// Stats are monitor-side counters. All counters are maintained atomically,
// so Stats may be called at any time, concurrently with producers — not
// just after Close (mid-run values are monotonic snapshots).
type Stats struct {
	Events      uint64 // branch events accepted for processing
	Instances   uint64 // branch instances checked
	Flushes     uint64 // barrier-generation flushes performed (incl. forced)
	Dropped     uint64 // branch events dropped by the overflow policy
	Quarantined uint64 // malformed, stale, or straggler events skipped
	Watchdog    uint64 // generations force-closed by the stall watchdog
	Panics      uint64 // monitor-goroutine panics recovered into Failed
}

// ViolationSummary aggregates violations per static branch.
type ViolationSummary struct {
	BranchID int
	Count    int
	First    string // reason of the lowest-keyed violation (deterministic)
}

// Monitor is the BLOCKWATCH runtime monitor. Create with New, start the
// asynchronous checking goroutine with Start, send events from each
// program thread through its per-thread Sender, and stop with Close
// (which drains outstanding events, performs the final pending check, and
// waits for the goroutine to exit). Every completed instance is checked
// inline on the monitor goroutine, by the checker core that a Checker
// drives synchronously (checker.go); the Monitor adds the concurrent
// front end around it: rings, park/wake, the watchdog's timer and the
// panic failsafe.
//
// The monitor fails open: queue overflow, malformed events, stalled
// producers, and even a panic in its own goroutine degrade coverage
// (reported via Health and Stats) but never block the program or
// introduce a false positive.
//
// The steady-state ingest path is allocation-free: the two-level instance
// table (table.go) is a flat index over dense entries plus a report arena,
// reset at each generation close by bumping an epoch and truncating, and
// the consumer checks each event in place in its thread's ring. After its
// final close the monitor hands its table to the next
// monitor in the process (one spare, not a sync.Pool; see spare), and a
// clean Close hands on its queues the same way (see recycleRings), so a
// sequence of runs does not reallocate either.
type Monitor struct {
	frontEnd
	checker
	met monMetrics

	started atomic.Bool
	closed  atomic.Bool
	stop    chan struct{}
	done    chan struct{}
}

// errors for configuration problems.
var (
	ErrNoThreads = errors.New("monitor requires at least one thread")
	ErrNoPlans   = errors.New("monitor requires a check-plan table")
)

// New builds a monitor for the given configuration.
func New(cfg Config) (*Monitor, error) {
	m := &Monitor{
		met:  newMonMetrics(cfg.Metrics),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	st := &status{}
	if err := m.init(cfg, st); err != nil {
		return nil, err
	}
	if err := m.initFrontEnd(st, cfg.NumThreads, cfg.QueueCap, cfg.Overflow, cfg.SenderBatch, m.met.frontEndMetrics); err != nil {
		return nil, err
	}
	return m, nil
}

// Start launches the asynchronous monitor goroutine (paper design goal 1).
func (m *Monitor) Start() {
	if m.started.Swap(true) {
		return
	}
	go m.loop()
}

// Close asks the monitor to finish draining and waits for it. It is safe
// to call after all program threads have sent their EvDone events; any
// still-pending instances are checked before the goroutine exits, and
// events published after a thread's EvDone are quarantined, as a Checker
// quarantines them. Close is idempotent. After a clean run Close hands
// the queues to the next sink in the process (see recycleRings), so no
// Sender may be used after it.
func (m *Monitor) Close() {
	if m.closed.Swap(true) {
		if m.started.Load() {
			<-m.done
		}
		return
	}
	if m.started.Load() {
		close(m.stop)
		<-m.done
	} else {
		m.closeUnstarted()
	}
	// The loop returns once it has seen every thread's EvDone, so events
	// a thread published after its EvDone may still be in the rings.
	m.discardAll()
	m.recycleRings(m.doneCount >= m.cfg.NumThreads)
}

// closeUnstarted drains a monitor that was never started synchronously,
// so callers still get checks. A panic (corrupt event state) fails open
// instead of propagating.
func (m *Monitor) closeUnstarted() {
	defer func() {
		if r := recover(); r != nil {
			m.fail()
			m.discardAll()
		}
	}()
	m.drainAll()
	m.finish()
}

// loop drains the per-thread queues round-robin without taking locks on
// the hot path (paper design goal 3), checking instances as they complete.
// When a round finds nothing to drain it parks until a Sender publishes
// (frontEnd.idleWait): the paper's monitor thread polls, this one gives
// its core back to the program while the queues are quiet. An
// armed watchdog with work pending bounds the park by the remaining
// StallDeadline, so it still fires on a parked monitor.
// A panic anywhere in event processing is recovered into the Failed state:
// the table is abandoned (never handed on), and a failsafe drain keeps
// discarding events so producers never block on a dead monitor.
func (m *Monitor) loop() {
	defer close(m.done)
	defer func() {
		if r := recover(); r != nil {
			m.fail()
			m.failsafe()
		}
	}()
	armed := m.cfg.StallDeadline > 0
	var lastProgress time.Time
	if armed {
		lastProgress = m.now()
	}
	for {
		idle := true
		for tid, q := range m.queues {
			if m.drainSlot(tid, q) {
				idle = false
			}
		}
		if m.doneCount >= m.cfg.NumThreads {
			m.finish()
			return
		}
		if !idle {
			if armed {
				lastProgress = m.now()
			}
			continue
		}
		select {
		case <-m.stop:
			// Final drain after the program stopped producing.
			m.drainAll()
			m.finish()
			return
		default:
		}
		var timeout time.Duration
		if armed && m.stalled() {
			waited := m.now().Sub(lastProgress)
			if waited >= m.cfg.StallDeadline {
				// A thread hung without EvDone: force the generation closed
				// so gated producers unwedge and the table stays bounded.
				m.forceClose()
				lastProgress = m.now()
				continue
			}
			timeout = m.cfg.StallDeadline - waited
		}
		m.idleWait(m.stop, m.drainable, timeout)
	}
}

// drainable reports whether an ungated thread has queued events, i.e.
// whether a drain round could make progress now. It is the monitor's
// recheck before it parks.
func (m *Monitor) drainable() bool {
	for tid, q := range m.queues {
		if !m.gated(tid) && !q.Empty() {
			return true
		}
	}
	return false
}

// drainSlot checks up to drainBatch of thread tid's events in place in its
// ring, until the thread gates or the peeked run ends, and releases only
// the events it processed. Reports whether any event was processed. A
// thread that has flushed past the current generation is gated: its
// post-barrier events must not be mixed with other threads' pre-barrier
// events, so they stay in its ring until the generation closes
// (per-queue FIFO plus this gate give generation-consistent processing).
func (m *Monitor) drainSlot(tid int, q *queue.SPSC[Event]) bool {
	if m.gated(tid) {
		return false
	}
	evs := q.Peek(drainBatch)
	if len(evs) == 0 {
		return false
	}
	n := m.run(tid, evs)
	// The depth high-water guard avoids q.Len()'s atomic loads when
	// detached.
	if m.met.queueHWM != nil {
		m.met.queueHWM.SetMax(int64(q.Len()))
	}
	q.Release(n)
	return true
}

// stalled reports whether the monitor is idle with work it cannot finish
// by itself: instances awaiting reports, or a gated thread's queue
// backlog. Without pending work the watchdog has nothing to force.
// An ungated thread with events is never a stall: it published after the
// last drain pass, and the next pass makes progress.
func (m *Monitor) stalled() bool {
	stuck := len(m.tab.entries) > 0
	for tid, q := range m.queues {
		if q.Empty() {
			continue
		}
		if !m.gated(tid) {
			return false
		}
		stuck = true
	}
	return stuck
}

// drainAll empties every queue, forcing generations closed when some
// thread never produced its flush (e.g. it crashed under fault injection).
func (m *Monitor) drainAll() {
	for {
		progress := false
		backlog := false
		for tid, q := range m.queues {
			if m.drainSlot(tid, q) {
				progress = true
			}
			if !q.Empty() {
				backlog = true
			}
		}
		if !backlog {
			return
		}
		if !progress {
			// Every non-empty queue is gated: a thread is missing its
			// flush. Close the generation with what we have.
			m.closeGeneration(closeForced)
		}
	}
}

// failsafe keeps draining and discarding events after the monitor
// goroutine's state was lost to a panic, so producers blocked on full
// queues are released and the program runs to completion (without
// coverage). It parks like the loop does, rechecking every queue since
// gating no longer applies, and exits when Close signals stop.
func (m *Monitor) failsafe() {
	for {
		m.discardAll()
		select {
		case <-m.stop:
			m.discardAll()
			return
		default:
		}
		m.idleWait(m.stop, m.queued, 0)
	}
}

// discardAll releases and quarantines every queued event without
// touching the (possibly corrupt) table state. A panic leaves the batch
// it interrupted unreleased, so its events are quarantined here too.
func (m *Monitor) discardAll() {
	for _, q := range m.queues {
		for evs := q.Peek(q.Cap()); len(evs) > 0; evs = q.Peek(q.Cap()) {
			m.quarantine(len(evs))
			q.Release(len(evs))
		}
	}
}

// Stats returns a snapshot of the monitor's counters. Safe to call from
// any goroutine at any time; after Close the values are final.
func (m *Monitor) Stats() Stats {
	s := m.checker.Stats()
	s.Dropped = m.dropped()
	return s
}

// SummarizeViolations groups violations by branch ID, most frequent first.
// First is the reason of the branch's lowest-keyed (Key1, Key2) violation
// — a canonical choice that does not depend on arrival order, so every
// deployment that records the same violations summarizes them alike.
func SummarizeViolations(vs []Violation) []ViolationSummary {
	type entry struct {
		sum        ViolationSummary
		key1, key2 uint64
	}
	byBranch := make(map[int]*entry)
	var order []int
	for _, v := range vs {
		e, ok := byBranch[v.BranchID]
		if !ok {
			e = &entry{
				sum:  ViolationSummary{BranchID: v.BranchID, First: v.Reason},
				key1: v.Key1,
				key2: v.Key2,
			}
			byBranch[v.BranchID] = e
			order = append(order, v.BranchID)
		} else if v.Key1 < e.key1 || (v.Key1 == e.key1 && v.Key2 < e.key2) {
			e.key1, e.key2, e.sum.First = v.Key1, v.Key2, v.Reason
		}
		e.sum.Count++
	}
	out := make([]ViolationSummary, 0, len(order))
	for _, id := range order {
		out = append(out, byBranch[id].sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].BranchID < out[j].BranchID
	})
	return out
}

// QueueBacklog returns the current total number of undrained events
// (diagnostic; queue occupancy only, safe from any goroutine). It is 0
// once Close has handed the queues on.
func (m *Monitor) QueueBacklog() int { return m.backlog() }
