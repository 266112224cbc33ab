package monitor

import (
	"errors"
	"runtime"
	"sort"
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

// drainBatch bounds both the consumer-side PopBatch size and the number of
// events one queue may contribute per scheduling round (fairness).
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
	// SendSpins bounds the OverflowBlockTimeout spin loop
	// (0 = DefaultSendSpins).
	SendSpins int
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
// The steady-state ingest path is allocation-free: the two-level table and
// its level-1 entries persist across barrier generations (instances are
// cleared in place), instance structs and their report slices are recycled
// on free lists, and the consumer drains each queue in batches into
// reusable per-thread buffers.
type Monitor struct {
	frontEnd
	cfg Config
	now func() time.Time
	met monMetrics

	// Monitor-goroutine-private state.
	table        map[uint64]*level1
	numInstances int
	maxInstances int
	flushCount   []uint64 // per-thread barrier flushes processed
	doneThreads  []bool   // per-thread EvDone processed
	flushedGens  uint64
	doneCount    int

	// Consumer-side batching (monitor-goroutine-private): per-thread
	// buffers of dequeued-but-unprocessed events. A PopBatch may land
	// events beyond a gating flush; the remainder waits here until the
	// generation closes, preserving the per-queue gate semantics.
	pending    [][]Event
	pendingPos []int

	// Allocation recycling (monitor-goroutine-private).
	instPool []*instance // cleared instances, reports capacity NumThreads

	// genViolations buffers the current generation's violations; they are
	// sorted into canonical (Key1, Key2) order and published at every
	// generation close, so the violation log does not depend on map
	// iteration order.
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

type level1 struct {
	plan      *core.CheckPlan
	instances map[uint64]*instance
}

type instance struct {
	reports []Report
	checked bool
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
		table:        make(map[uint64]*level1),
		maxInstances: maxInst,
		flushCount:   make([]uint64, cfg.NumThreads),
		doneThreads:  make([]bool, cfg.NumThreads),
		pending:      make([][]Event, cfg.NumThreads),
		pendingPos:   make([]int, cfg.NumThreads),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	err := m.initFrontEnd(cfg.NumThreads, cfg.QueueCap, cfg.Overflow, cfg.SendSpins, cfg.SenderBatch, m.met.frontEndMetrics)
	if err != nil {
		return nil, err
	}
	for i := range m.pending {
		m.pending[i] = make([]Event, 0, drainBatch)
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
// still-pending instances are checked before the goroutine exits. Close is
// idempotent.
func (m *Monitor) Close() {
	if m.closed.Swap(true) {
		if m.started.Load() {
			<-m.done
		}
		return
	}
	if !m.started.Load() {
		// Never started: drain synchronously so callers still get checks.
		// A panic (corrupt event state) fails open instead of propagating.
		defer func() {
			if r := recover(); r != nil {
				m.panics.Add(1)
				m.health.Store(int32(Failed))
				m.discardAll()
			}
		}()
		m.drainAll()
		m.closeGeneration(closeFinal)
		return
	}
	close(m.stop)
	<-m.done
}

// loop drains the per-thread queues round-robin without taking locks on
// the hot path (paper design goal 3), checking instances as they complete.
// A panic anywhere in event processing is recovered into the Failed state:
// the table is abandoned, and a failsafe drain keeps discarding events so
// producers never block on a dead monitor.
func (m *Monitor) loop() {
	defer close(m.done)
	defer func() {
		if r := recover(); r != nil {
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
			m.closeGeneration(closeFinal)
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
			m.closeGeneration(closeFinal)
			return
		default:
		}
		if armed && m.stalled() && m.now().Sub(lastProgress) >= m.cfg.StallDeadline {
			// A thread hung without EvDone: force the generation closed so
			// gated producers unwedge and the table stays bounded.
			m.closeGeneration(closeForced)
			m.watchdog.Add(1)
			m.degrade()
			lastProgress = m.now()
		}
		runtime.Gosched()
	}
}

// drainSlot processes thread tid's buffered remainder and batch-refills
// from its queue, until the thread gates, the queue runs dry, or the
// per-round fairness cap is hit. Reports whether any event was processed.
// A thread that has flushed past the current generation is gated: its
// post-barrier events must not be mixed with other threads' pre-barrier
// events (per-queue FIFO plus this gate give generation-consistent
// processing).
func (m *Monitor) drainSlot(tid int, q *queue.SPSC[Event]) bool {
	progress := false
	for n := 0; n < drainBatch && !m.gated(tid); n++ {
		if m.pendingPos[tid] == len(m.pending[tid]) {
			buf := m.pending[tid][:drainBatch]
			popped := q.PopBatch(buf)
			if popped == 0 {
				break
			}
			m.pending[tid] = buf[:popped]
			m.pendingPos[tid] = 0
			// Per-batch (not per-event) metric updates keep the
			// instrumented drain within the throughput budget; the depth
			// high-water guard avoids q.Len()'s atomic loads when detached.
			m.met.events.Add(uint64(popped))
			m.met.batches.Inc()
			m.met.batchSize.Observe(int64(popped))
			if m.met.queueHWM != nil {
				m.met.queueHWM.SetMax(int64(popped + q.Len()))
			}
		}
		idx := m.pendingPos[tid]
		m.pendingPos[tid]++
		progress = true
		if m.cfg.EventTap != nil {
			// Tap in place inside the pending buffer: taking the address of
			// a local copy here would heap-allocate every event.
			m.cfg.EventTap(&m.pending[tid][idx])
		}
		m.process(tid, m.pending[tid][idx])
	}
	return progress
}

// buffered returns the number of dequeued-but-unprocessed events parked in
// thread tid's pending buffer.
func (m *Monitor) buffered(tid int) int {
	return len(m.pending[tid]) - m.pendingPos[tid]
}

// stalled reports whether the monitor is idle with work it cannot finish
// by itself: undrained (gated) queue or buffer backlog, or instances
// awaiting reports. Without pending work the watchdog has nothing to force.
func (m *Monitor) stalled() bool {
	if m.numInstances > 0 {
		return true
	}
	for tid, q := range m.queues {
		if !q.Empty() || m.buffered(tid) > 0 {
			return true
		}
	}
	return false
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
	// (runaway faulty loop); the table is checked and cleared for bounded
	// memory, but the generation counter does NOT advance — producers'
	// barrier positions are unaffected.
	closeOverflow
	// closeFinal: end of the run; the final pending check, not counted as
	// a flush.
	closeFinal
)

// closeGeneration is the single flush-and-reset sequence behind barrier
// flushes, watchdog force-closes, overflow evictions, and the final check:
// pending instances with ≥2 reports are checked, the generation's
// violations are published in canonical order, every instance is recycled onto the free list, and the two-level table is cleared in
// place (level-1 entries and their maps persist across generations, so the
// steady state allocates nothing).
func (m *Monitor) closeGeneration(reason closeReason) {
	var t0 time.Time
	if m.met.genCloseNs != nil {
		t0 = time.Now()
	}
	m.checkPending()
	m.publishViolations()
	for _, l1 := range m.table {
		for k2, inst := range l1.instances {
			m.putInstance(inst)
			delete(l1.instances, k2)
		}
	}
	m.numInstances = 0
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
			if !q.Empty() || m.buffered(tid) > 0 {
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
// coverage). It exits when Close signals stop.
func (m *Monitor) failsafe() {
	for {
		m.discardAll()
		select {
		case <-m.stop:
			m.discardAll()
			return
		default:
			runtime.Gosched()
		}
	}
}

// discardAll pops and quarantines every queued or buffered event without
// touching the (possibly corrupt) table state.
func (m *Monitor) discardAll() {
	for tid, q := range m.queues {
		if n := m.buffered(tid); n > 0 {
			m.quarantine(n)
			m.pending[tid] = m.pending[tid][:0]
			m.pendingPos[tid] = 0
		}
		for {
			buf := m.pending[tid][:drainBatch]
			n := q.PopBatch(buf)
			if n == 0 {
				break
			}
			m.quarantine(n)
		}
		m.pending[tid] = m.pending[tid][:0]
		m.pendingPos[tid] = 0
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
func (m *Monitor) process(slot int, ev Event) {
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
		m.events.Add(1)
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

// getInstance takes a cleared instance from the free list (or allocates
// one with report capacity NumThreads, the steady-state report count).
func (m *Monitor) getInstance() *instance {
	if n := len(m.instPool); n > 0 {
		inst := m.instPool[n-1]
		m.instPool = m.instPool[:n-1]
		return inst
	}
	return &instance{reports: make([]Report, 0, m.cfg.NumThreads)}
}

// putInstance clears an instance and returns it to the free list. The
// list's high-water mark is the peak live-instance count of any single
// generation (bounded by MaxInstances), the same memory the pre-pooling
// monitor handed to the garbage collector each generation.
func (m *Monitor) putInstance(inst *instance) {
	inst.reports = inst.reports[:0]
	inst.checked = false
	m.instPool = append(m.instPool, inst)
}

// insert stores a branch report in the two-level hash table (paper: first
// level call-site/static-branch key, second level loop-iteration key) and
// eagerly checks the instance once every thread has reported. Level-1
// entries persist across generations: Key1 identifies the static branch,
// so its check plan never changes, and keeping the entry (with its cleared
// second-level map) makes the steady-state path allocation-free.
func (m *Monitor) insert(ev Event) {
	l1, ok := m.table[ev.Key1]
	if ok && int(ev.BranchID) != l1.plan.BranchID {
		// The payload's branch ID disagrees with the established
		// Key1→plan binding (only possible under fault). Treat the event
		// exactly as if it had arrived first, so the outcome does not
		// depend on which thread's report of Key1 the drain processed
		// first: an unchecked branch is ignored, anything else is
		// quarantined and never mixed into this branch's instances.
		if plan := m.cfg.Plans[int(ev.BranchID)]; plan != nil && !plan.Checked() {
			return
		}
		m.quarantine(1)
		return
	}
	if !ok {
		plan := m.cfg.Plans[int(ev.BranchID)]
		if plan == nil {
			// Unknown branch ID: impossible in a fault-free run (the
			// interpreter only sends planned branches), so count it.
			m.quarantine(1)
			return
		}
		if !plan.Checked() {
			return
		}
		l1 = &level1{plan: plan, instances: make(map[uint64]*instance)}
		m.table[ev.Key1] = l1
	}
	inst, ok := l1.instances[ev.Key2]
	if !ok {
		if m.numInstances >= m.maxInstances {
			// Table flooded (runaway faulty loop): behave like a forced
			// generation flush so memory stays bounded. l1 survives the
			// in-place clear with its plan — trusting the established
			// Key1→plan binding, never the corruptible BranchID field.
			m.closeGeneration(closeOverflow)
		}
		inst = m.getInstance()
		l1.instances[ev.Key2] = inst
		m.numInstances++
	}
	if inst.checked {
		// A straggler report for an already-checked instance: re-check the
		// full set (only possible under fault, never in error-free runs).
		inst.checked = false
	}
	inst.reports = append(inst.reports, Report{Thread: ev.Thread, Sig: ev.Sig, Taken: ev.Taken})
	if len(inst.reports) >= m.cfg.NumThreads {
		m.checkInstance(l1.plan, ev.Key1, ev.Key2, inst)
	}
}

// checkInstance validates one completed instance inline on the monitor
// goroutine, buffering any violation for the generation's publish step.
// The instance stays in the table, so a straggler can still reopen it.
func (m *Monitor) checkInstance(plan *core.CheckPlan, k1, k2 uint64, inst *instance) {
	if inst.checked {
		return
	}
	inst.checked = true
	m.instances.Add(1)
	if reason := CheckReports(plan, inst.reports); reason != "" {
		m.genViolations = append(m.genViolations, Violation{
			BranchID: plan.BranchID,
			Key1:     k1,
			Key2:     k2,
			Reason:   reason,
		})
	}
}

// checkPending validates instances that never received all threads'
// reports (branches executed by a subset of threads); at least two
// reports are required for any cross-thread check.
func (m *Monitor) checkPending() {
	for k1, l1 := range m.table {
		for k2, inst := range l1.instances {
			if !inst.checked && len(inst.reports) >= 2 {
				m.checkInstance(l1.plan, k1, k2, inst)
			}
		}
	}
}

// publishViolations sorts the generation's violations into canonical
// order and appends them to the violation log. checkPending iterates
// maps, so without the sort the log would depend on map iteration order.
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
// of the key so the order is total, independent of map iteration.
func sortViolations(vs []Violation) {
	if len(vs) < 2 {
		return
	}
	// Insertion sort: generations have zero violations in fault-free runs
	// and a handful under fault, so this beats sort.Slice's closure
	// allocation on the hot path.
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && violationLess(vs[j], vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

func violationLess(a, b Violation) bool {
	if a.Key1 != b.Key1 {
		return a.Key1 < b.Key1
	}
	if a.Key2 != b.Key2 {
		return a.Key2 < b.Key2
	}
	if a.BranchID != b.BranchID {
		return a.BranchID < b.BranchID
	}
	return a.Reason < b.Reason
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
// (diagnostic; queue occupancy only, safe from any goroutine).
func (m *Monitor) QueueBacklog() int {
	n := 0
	for _, q := range m.queues {
		n += q.Len()
	}
	return n
}
