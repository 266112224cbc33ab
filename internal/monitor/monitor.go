package monitor

import (
	"cmp"
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// sending EvDone bounds memory and never livelocks producers.
	StallDeadline time.Duration
	// Now overrides the watchdog clock (nil = time.Now). Tests drive the
	// watchdog deterministically with a virtual clock.
	Now func() time.Time
	// EventTap, when non-nil, is invoked by the monitor goroutine on
	// every dequeued event before processing. Fault injection uses it to
	// corrupt the event path (bit-flips in queued Event payloads); it
	// must not block. Flat monitor only.
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
// inline on the monitor goroutine.
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
	cfg Config
	now func() time.Time
	met monMetrics

	// Monitor-goroutine-private state. tab is nil once handed on.
	tab          *table
	maxInstances int
	flushCount   []uint64 // per-thread barrier flushes processed
	doneThreads  []bool   // per-thread EvDone processed
	flushedGens  uint64
	doneCount    int
	// uncounted holds the branch events processed since the last add to
	// events: the atomic is bumped once per drained batch, not per event.
	uncounted uint64

	// genViolations buffers the current generation's violations; they are
	// sorted into canonical (Key1, Key2) order and published at every
	// generation close, so the violation log does not depend on the order
	// instances were inserted or checked in.
	genViolations []Violation

	mu         sync.Mutex
	violations []Violation
	detected   atomic.Bool

	// Counters (atomic: written by the monitor goroutine, readable from
	// any goroutine). Drops, quarantines and health live in the embedded
	// front end.
	events    atomic.Uint64
	instances atomic.Uint64
	flushes   atomic.Uint64
	watchdog  atomic.Uint64
	panics    atomic.Uint64

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
	if cfg.NumThreads < 1 {
		return nil, ErrNoThreads
	}
	if cfg.Plans == nil {
		return nil, ErrNoPlans
	}
	maxInst := cfg.MaxInstances
	if maxInst <= 0 {
		maxInst = DefaultMaxInstances
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	m := &Monitor{
		cfg:          cfg,
		now:          now,
		met:          newMonMetrics(cfg.Metrics),
		maxInstances: maxInst,
		flushCount:   make([]uint64, cfg.NumThreads),
		doneThreads:  make([]bool, cfg.NumThreads),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	err := m.initFrontEnd(cfg.NumThreads, cfg.QueueCap, cfg.Overflow, cfg.SenderBatch, m.met.frontEndMetrics)
	if err != nil {
		return nil, err
	}
	m.tab = takeTable(cfg.NumThreads)
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
// still-pending instances are checked before the goroutine exits. Close is
// idempotent. After a clean run Close hands the queues to the next sink in
// the process (see recycleRings), so no Sender may be used after it.
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
	m.recycleRings(m.doneCount >= m.cfg.NumThreads)
}

// closeUnstarted drains a monitor that was never started synchronously,
// so callers still get checks. A panic (corrupt event state) fails open
// instead of propagating.
func (m *Monitor) closeUnstarted() {
	defer func() {
		if r := recover(); r != nil {
			m.countEvents()
			m.panics.Add(1)
			m.health.Store(int32(Failed))
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
			m.countEvents()
			m.panics.Add(1)
			m.health.Store(int32(Failed))
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
				m.closeGeneration(closeForced)
				m.watchdog.Add(1)
				m.degrade()
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
	n := 0
	for n < len(evs) && !m.gated(tid) {
		ev := &evs[n]
		n++
		if m.cfg.EventTap != nil {
			m.cfg.EventTap(ev)
		}
		m.process(tid, ev)
	}
	// Per-batch (not per-event) metric updates keep the instrumented
	// drain within the throughput budget; the depth high-water guard
	// avoids q.Len()'s atomic loads when detached.
	m.met.events.Add(uint64(n))
	m.met.batches.Inc()
	m.met.batchSize.Observe(int64(n))
	if m.met.queueHWM != nil {
		m.met.queueHWM.SetMax(int64(q.Len()))
	}
	q.Release(n)
	m.countEvents()
	return true
}

// countEvents publishes the branch events processed since the last call
// to Stats.
func (m *Monitor) countEvents() {
	if m.uncounted != 0 {
		m.events.Add(m.uncounted)
		m.uncounted = 0
	}
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

// gated reports whether thread tid's queue must pause until the current
// barrier generation is flushed.
func (m *Monitor) gated(tid int) bool {
	return m.flushCount[tid] > m.flushedGens
}

// closeReason says why a barrier generation is being closed; it determines
// whether the generation counter advances and how the close is counted.
type closeReason int

const (
	// closeBarrier: every live thread flushed past the generation.
	closeBarrier closeReason = iota
	// closeForced: the watchdog fired or a drain found a thread that will
	// never flush; the generation closes with the reports it has (every
	// rule is subset-closed, so this stays sound) and advances, ungating
	// the threads that already flushed. Branch events of threads left
	// behind are quarantined until their own flush catches up, so stale
	// pre-barrier reports are never mixed into the new generation.
	closeForced
	// closeOverflow: the table hit MaxInstances inside one generation
	// (runaway faulty loop), or an index probe passed maxProbe (colliding
	// keys); the table is checked and cleared for bounded memory and
	// probe cost, but the generation counter does NOT advance —
	// producers' barrier positions are unaffected.
	closeOverflow
	// closeFinal: end of the run; the final pending check, not counted as
	// a flush.
	closeFinal
)

// closeGeneration is the single flush-and-reset sequence behind barrier
// flushes, watchdog force-closes, overflow evictions, and the final check:
// pending instances with ≥2 reports are checked, the generation's
// violations are published in canonical order, and the table's epoch
// reset empties the second level in place (the Key1 bindings persist, so
// the steady state allocates nothing).
func (m *Monitor) closeGeneration(reason closeReason) {
	var t0 time.Time
	if m.met.genCloseNs != nil {
		t0 = time.Now()
	}
	m.checkPending()
	m.publishViolations()
	m.tab.reset()
	switch reason {
	case closeBarrier, closeForced:
		m.flushedGens++
		m.flushes.Add(1)
		m.met.flushes.Inc()
	case closeOverflow:
		m.flushes.Add(1)
		m.met.flushes.Inc()
	case closeFinal:
		// Run end: nothing advances; matches the pre-batching monitor,
		// whose final pending check was not counted as a flush.
	}
	if m.met.genCloseNs != nil {
		m.met.genCloseNs.Observe(time.Since(t0).Nanoseconds())
	}
}

// finish performs the final check and hands the table on as the process's
// spare. A panic in the check skips the hand-off: a Failed monitor's table
// may be corrupt.
func (m *Monitor) finish() {
	m.countEvents()
	m.closeGeneration(closeFinal)
	releaseTable(m.tab)
	m.tab = nil
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

// process handles one dequeued event. slot is the queue the event was
// popped from: a Sender publishes only its own thread's events, so
// slot == ev.Thread unless the producer mislabeled them or the payload was corrupted inside the queue (the EventTap fault model).
// Generation and liveness bookkeeping therefore trusts slot — which is
// deterministic per-queue FIFO state — never the payload. Malformed events
// (unknown kind, mismatched or out-of-range thread, post-done stragglers,
// stale force-closed-generation leftovers) are quarantined: counted,
// reported through Health, and skipped.
func (m *Monitor) process(slot int, ev *Event) {
	switch ev.Kind {
	case EvFlush:
		if int(ev.Thread) != slot || m.doneThreads[slot] {
			m.quarantine(1)
			return
		}
		m.flushCount[slot]++
		m.maybeFlushGeneration()
	case EvDone:
		if int(ev.Thread) != slot || m.doneThreads[slot] {
			m.quarantine(1)
			return
		}
		m.doneCount++
		m.doneThreads[slot] = true
		// A finished thread's queue is fully drained (EvDone is its last
		// event), so it can no longer hold a generation open; recompute.
		m.maybeFlushGeneration()
	case EvBranch:
		if m.doneThreads[slot] || m.flushCount[slot] < m.flushedGens {
			// Post-done straggler, or a pre-barrier leftover of a
			// generation the watchdog force-closed: processing it could
			// mix generations, so it is quarantined instead.
			m.quarantine(1)
			return
		}
		if tid := int(ev.Thread); tid < 0 || tid >= m.cfg.NumThreads {
			m.quarantine(1) // corrupted-in-queue thread ID
			return
		}
		m.uncounted++
		if m.cfg.CheckingDisabled {
			return
		}
		m.insert(ev)
	default:
		m.quarantine(1)
	}
}

// maybeFlushGeneration closes generations once every live thread's events
// up to the same barrier have been processed. Per-thread queues are FIFO,
// so flushCount[i] == g implies every pre-barrier-g event of thread i has
// been seen; finished threads (EvDone processed) are excluded so a thread
// that crashed before a barrier cannot wedge the generation — and thereby
// deadlock producers spinning on their gated, full queues.
func (m *Monitor) maybeFlushGeneration() {
	min := ^uint64(0)
	live := 0
	for i, c := range m.flushCount {
		if m.doneThreads[i] {
			continue
		}
		live++
		if c < min {
			min = c
		}
	}
	if live == 0 {
		return // final pending check happens on loop exit
	}
	for m.flushedGens < min {
		m.closeGeneration(closeBarrier)
	}
}

// insert stores a branch report in the two-level table (paper: first
// level call-site/static-branch key, second level loop-iteration key) and
// eagerly checks the instance once every thread has reported. Key1's plan
// binding persists across generations: Key1 identifies the static branch,
// so its check plan never changes. An existing instance carries the
// binding, so the common case is one level-2 probe.
func (m *Monitor) insert(ev *Event) {
	t := m.tab
	i, slot := t.find(ev.Key1, ev.Key2)
	var plan *core.CheckPlan
	if i >= 0 {
		plan = t.entries[i].plan
	} else {
		plan = t.binding(ev.Key1)
	}
	if plan != nil && int(ev.BranchID) != plan.BranchID {
		// The payload's branch ID disagrees with the established
		// Key1→plan binding (only possible under fault). Treat the event
		// exactly as if it had arrived first, so the outcome does not
		// depend on which thread's report of Key1 the drain processed
		// first: an unchecked branch is ignored, anything else is
		// quarantined and never mixed into this branch's instances.
		if p := m.cfg.Plans[int(ev.BranchID)]; p != nil && !p.Checked() {
			return
		}
		m.quarantine(1)
		return
	}
	if plan == nil {
		plan = m.cfg.Plans[int(ev.BranchID)]
		if plan == nil {
			// Unknown branch ID: impossible in a fault-free run (the
			// interpreter only sends planned branches), so count it.
			m.quarantine(1)
			return
		}
		if !plan.Checked() {
			return
		}
		if !t.bind(ev.Key1, plan) {
			m.quarantine(1) // a Key1 crafted into a full binding cluster
			return
		}
	}
	if i < 0 {
		if len(t.entries) >= m.maxInstances || slot == probeCapped {
			// Table flooded (runaway faulty loop), or a probe passed
			// maxProbe (keys crafted to collide): behave like a forced
			// generation flush so memory and probe cost stay bounded. The
			// Key1 binding survives the reset — trusting the established
			// Key1→plan binding, never the corruptible BranchID field.
			if slot == probeCapped {
				m.met.probeCloses.Inc()
			}
			m.closeGeneration(closeOverflow)
			slot = -1
		}
		i = t.insert(ev.Key1, ev.Key2, plan, slot)
	}
	// A straggler report for an already-checked instance reopens it: the
	// full set is re-checked (only possible under fault, never in
	// error-free runs).
	t.entries[i].checked = false
	t.add(i, Report{Thread: ev.Thread, Sig: ev.Sig, Taken: ev.Taken})
	if int(t.entries[i].count) >= m.cfg.NumThreads {
		m.checkInstance(i)
	}
}

// checkInstance validates entry i inline on the monitor goroutine,
// buffering any violation for the generation's publish step. The instance
// stays in the table, so a straggler can still reopen it.
func (m *Monitor) checkInstance(i int32) {
	e := &m.tab.entries[i]
	if e.checked {
		return
	}
	e.checked = true
	m.instances.Add(1)
	if reason := CheckReports(e.plan, m.tab.reports(i)); reason != "" {
		m.genViolations = append(m.genViolations, Violation{
			BranchID: e.plan.BranchID,
			Key1:     e.key1,
			Key2:     e.key2,
			Reason:   reason,
		})
	}
}

// checkPending validates instances that never received all threads'
// reports (branches executed by a subset of threads); at least two
// reports are required for any cross-thread check.
func (m *Monitor) checkPending() {
	for i := range m.tab.entries {
		if e := &m.tab.entries[i]; !e.checked && e.count >= 2 {
			m.checkInstance(int32(i))
		}
	}
}

// publishViolations sorts the generation's violations into canonical
// order and appends them to the violation log, so the log does not
// depend on the order the drain inserted instances in.
// Called from closeGeneration on the monitor goroutine.
func (m *Monitor) publishViolations() {
	// Timed inline rather than with a defer: this runs on every
	// generation close, and a deferred closure would cost an allocation
	// plus defer overhead per generation when a registry is attached.
	var t0 time.Time
	if m.met.mergeNs != nil {
		t0 = time.Now()
	}
	if len(m.genViolations) > 0 {
		vs := m.genViolations
		sortViolations(vs)
		m.mu.Lock()
		m.violations = append(m.violations, vs...)
		m.mu.Unlock()
		m.detected.Store(true)
		m.genViolations = vs[:0]
	}
	if m.met.mergeNs != nil {
		m.met.mergeNs.Observe(time.Since(t0).Nanoseconds())
	}
}

// sortViolations puts one generation's violations into the canonical
// order: (Key1, Key2, BranchID, Reason). Every field of the tuple is part
// of the key so the order is total, independent of the order instances
// were checked in. slices.SortFunc with a plain function value allocates
// nothing, and a faulty generation with thousands of violations stays
// O(n log n).
func sortViolations(vs []Violation) {
	slices.SortFunc(vs, compareViolations)
}

func compareViolations(a, b Violation) int {
	if c := cmp.Compare(a.Key1, b.Key1); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Key2, b.Key2); c != 0 {
		return c
	}
	if c := cmp.Compare(a.BranchID, b.BranchID); c != 0 {
		return c
	}
	return strings.Compare(a.Reason, b.Reason)
}

// Detected reports whether any violation has been recorded. Safe to call
// from any goroutine.
func (m *Monitor) Detected() bool { return m.detected.Load() }

// Violations returns a copy of the recorded violations.
func (m *Monitor) Violations() []Violation {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Violation, len(m.violations))
	copy(out, m.violations)
	return out
}

// Stats returns a snapshot of the monitor's counters. Safe to call from
// any goroutine at any time; after Close the values are final.
func (m *Monitor) Stats() Stats {
	return Stats{
		Events:      m.events.Load(),
		Instances:   m.instances.Load(),
		Flushes:     m.flushes.Load(),
		Dropped:     m.dropped(),
		Quarantined: m.quarantined.Load(),
		Watchdog:    m.watchdog.Load(),
		Panics:      m.panics.Load(),
	}
}

// Summarize groups the recorded violations by static branch, ordered by
// descending count (diagnostics for localizing the corrupted branch).
func (m *Monitor) Summarize() []ViolationSummary {
	return SummarizeViolations(m.Violations())
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
