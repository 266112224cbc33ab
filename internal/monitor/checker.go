package monitor

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"blockwatch/internal/core"
)

// checker is the single-threaded core of the monitor: the instance table
// with its Key1 bindings, generation gating, close, check and publish, and
// the counters behind Stats. Two callers feed it. A Monitor drains its
// per-thread rings into it on the monitor goroutine, leaving a gated
// thread's events in that thread's ring; a Checker is fed frames by the
// goroutine that holds them (a daemon session, a trace replay) and keeps
// a gated thread's events in a per-thread buffer. Its inputs run on one
// goroutine at a time; Stats, Violations and Detected are safe from any
// goroutine.
type checker struct {
	cfg          Config
	st           *status // the owner's ledger; a Monitor's front end shares it
	met          checkerMetrics
	now          func() time.Time
	maxInstances int

	// Input-goroutine state. tab is nil once handed on (finish) or
	// abandoned (fail).
	tab         *table
	flushCount  []uint64 // per-thread barrier flushes processed
	doneThreads []bool   // per-thread EvDone processed
	flushedGens uint64
	doneCount   int
	// uncounted holds the branch events processed since the last add to
	// events: the atomic is bumped once per batch, not per event.
	uncounted uint64

	// genViolations buffers the current generation's violations; they are
	// sorted into canonical (Key1, Key2) order and published at every
	// generation close, so the violation log does not depend on the order
	// instances were inserted or checked in.
	genViolations []Violation

	mu         sync.Mutex
	violations []Violation
	detected   atomic.Bool

	// Counters (atomic: written by the input goroutine, readable from
	// any goroutine). Quarantines and health live in st; drops in a
	// Monitor's front end.
	events    atomic.Uint64
	instances atomic.Uint64
	flushes   atomic.Uint64
	watchdog  atomic.Uint64
	panics    atomic.Uint64
}

// init readies c for a run of cfg over the ledger st, reusing c's
// slices, and takes the process's spare table.
func (c *checker) init(cfg Config, st *status) error {
	if cfg.NumThreads < 1 {
		return ErrNoThreads
	}
	if cfg.Plans == nil {
		return ErrNoPlans
	}
	c.cfg, c.st = cfg, st
	c.met = newCheckerMetrics(cfg.Metrics)
	st.met = c.met.quarantined
	c.now = cfg.Now
	if c.now == nil {
		c.now = time.Now
	}
	c.maxInstances = min(cfg.MaxInstances, maxTableInstances)
	if c.maxInstances <= 0 {
		c.maxInstances = DefaultMaxInstances
	}
	c.flushCount = resize(c.flushCount, cfg.NumThreads)
	c.doneThreads = resize(c.doneThreads, cfg.NumThreads)
	c.flushedGens, c.doneCount, c.uncounted = 0, 0, 0
	c.genViolations = c.genViolations[:0]
	c.violations = c.violations[:0]
	c.detected.Store(false)
	c.events.Store(0)
	c.instances.Store(0)
	c.flushes.Store(0)
	c.watchdog.Store(0)
	c.panics.Store(0)
	c.tab = takeTable(cfg.NumThreads)
	return nil
}

// resize returns s with length n, every element zero, reusing its array.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// run checks slot's events in place, in order, until the slot gates, and
// returns how many it processed (the rest must wait for the generation
// to close). Each call is one batch in the metrics.
func (c *checker) run(slot int, evs []Event) int {
	n := 0
	for n < len(evs) && !c.gated(slot) {
		ev := &evs[n]
		n++
		if c.cfg.EventTap != nil {
			c.cfg.EventTap(ev)
		}
		c.process(slot, ev)
	}
	// Per-batch (not per-event) metric updates keep the instrumented
	// path within the throughput budget.
	c.met.events.Add(uint64(n))
	c.met.batches.Inc()
	c.met.batchSize.Observe(int64(n))
	c.countEvents()
	return n
}

// countEvents publishes the branch events processed since the last call
// to Stats.
func (c *checker) countEvents() {
	if c.uncounted != 0 {
		c.events.Add(c.uncounted)
		c.uncounted = 0
	}
}

// gated reports whether thread tid's events must wait until the current
// barrier generation is flushed: it has flushed past the generation, and
// its post-barrier events must not be mixed with other threads'
// pre-barrier events (per-thread FIFO plus this gate give
// generation-consistent processing).
func (c *checker) gated(tid int) bool {
	return c.flushCount[tid] > c.flushedGens
}

// closeReason says why a barrier generation is being closed; it determines
// whether the generation counter advances and how the close is counted.
type closeReason int

const (
	// closeBarrier: every live thread flushed past the generation.
	closeBarrier closeReason = iota
	// closeForced: the watchdog fired, a gated thread's buffer filled, or
	// a final drain found a thread that will never flush; the generation
	// closes with the reports it has (every rule is subset-closed, so
	// this stays sound) and advances, ungating the threads that already
	// flushed. Branch events of threads left behind are quarantined until
	// their own flush catches up, so stale pre-barrier reports are never
	// mixed into the new generation.
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
// flushes, forced closes, overflow evictions, and the final check:
// pending instances with ≥2 reports are checked, the generation's
// violations are published in canonical order, and the table's epoch
// reset empties the second level in place (the Key1 bindings persist, so
// the steady state allocates nothing).
func (c *checker) closeGeneration(reason closeReason) {
	var t0 time.Time
	if c.met.genCloseNs != nil {
		t0 = time.Now()
	}
	c.checkPending()
	c.publishViolations()
	c.tab.reset()
	switch reason {
	case closeBarrier, closeForced:
		c.flushedGens++
		c.flushes.Add(1)
		c.met.flushes.Inc()
	case closeOverflow:
		c.flushes.Add(1)
		c.met.flushes.Inc()
	case closeFinal:
		// Run end: nothing advances; matches the pre-batching monitor,
		// whose final pending check was not counted as a flush.
	}
	if c.met.genCloseNs != nil {
		c.met.genCloseNs.Observe(time.Since(t0).Nanoseconds())
	}
}

// forceClose is the stall watchdog's action: close the generation with
// what it has, count it, and degrade.
func (c *checker) forceClose() {
	c.closeGeneration(closeForced)
	c.watchdog.Add(1)
	c.st.degrade()
}

// finish performs the final check and hands the table on as the process's
// spare. A panic in the check skips the hand-off: a Failed checker's
// table may be corrupt.
func (c *checker) finish() {
	c.countEvents()
	c.closeGeneration(closeFinal)
	releaseTable(c.tab)
	c.tab = nil
}

// fail records a recovered panic: the checker is Failed, and its table,
// whose state the panic may have left inconsistent, is abandoned rather
// than handed on.
func (c *checker) fail() {
	c.countEvents()
	c.panics.Add(1)
	c.st.health.Store(int32(Failed))
	c.tab = nil
}

// process handles one event of thread slot. A Sender publishes only its
// own thread's events, so slot == ev.Thread unless the producer
// mislabeled them or the payload was corrupted on the way (the EventTap
// fault model). Generation and liveness bookkeeping therefore trusts
// slot — which is deterministic per-thread FIFO state — never the
// payload. Malformed events (unknown kind, mismatched or out-of-range
// thread, post-done stragglers, stale force-closed-generation leftovers)
// are quarantined: counted, reported through Health, and skipped.
func (c *checker) process(slot int, ev *Event) {
	switch ev.Kind {
	case EvFlush:
		if int(ev.Thread) != slot || c.doneThreads[slot] {
			c.st.quarantine(1)
			return
		}
		c.flushCount[slot]++
		c.maybeFlushGeneration()
	case EvDone:
		if int(ev.Thread) != slot || c.doneThreads[slot] {
			c.st.quarantine(1)
			return
		}
		c.doneCount++
		c.doneThreads[slot] = true
		// A finished thread's stream is fully processed (EvDone is its
		// last event), so it can no longer hold a generation open;
		// recompute.
		c.maybeFlushGeneration()
	case EvBranch:
		if c.doneThreads[slot] || c.flushCount[slot] < c.flushedGens {
			// Post-done straggler, or a pre-barrier leftover of a
			// generation that was force-closed: processing it could mix
			// generations, so it is quarantined instead.
			c.st.quarantine(1)
			return
		}
		if tid := int(ev.Thread); tid < 0 || tid >= c.cfg.NumThreads {
			c.st.quarantine(1) // corrupted thread ID
			return
		}
		c.uncounted++
		if c.cfg.CheckingDisabled {
			return
		}
		c.insert(ev)
	default:
		c.st.quarantine(1)
	}
}

// maybeFlushGeneration closes generations once every live thread's events
// up to the same barrier have been processed. Per-thread input is FIFO,
// so flushCount[i] == g implies every pre-barrier-g event of thread i has
// been seen; finished threads (EvDone processed) are excluded so a thread
// that crashed before a barrier cannot wedge the generation — and thereby
// the threads gated behind it.
func (c *checker) maybeFlushGeneration() {
	min := ^uint64(0)
	live := 0
	for i, n := range c.flushCount {
		if c.doneThreads[i] {
			continue
		}
		live++
		if n < min {
			min = n
		}
	}
	if live == 0 {
		return // the final pending check happens at finish
	}
	for c.flushedGens < min {
		c.closeGeneration(closeBarrier)
	}
}

// insert stores a branch report in the two-level table (paper: first
// level call-site/static-branch key, second level loop-iteration key) and
// eagerly checks the instance once every thread has reported. Key1's plan
// binding persists across generations: Key1 identifies the static branch,
// so its check plan never changes. The binding is looked up first, and
// the instance is matched on (binding, Key2).
func (c *checker) insert(ev *Event) {
	t := c.tab
	b := t.binding(ev.Key1)
	i, slot := t.find(b, ev.Key1, ev.Key2)
	var plan *core.CheckPlan
	if b >= 0 {
		plan = t.binds[b].plan
	}
	if plan != nil && int(ev.BranchID) != plan.BranchID {
		// The payload's branch ID disagrees with the established
		// Key1→plan binding (only possible under fault). Treat the event
		// exactly as if it had arrived first, so the outcome does not
		// depend on which thread's report of Key1 was processed first:
		// an unchecked branch is ignored, anything else is quarantined
		// and never mixed into this branch's instances.
		if p := c.cfg.Plans[int(ev.BranchID)]; p != nil && !p.Checked() {
			return
		}
		c.st.quarantine(1)
		return
	}
	if plan == nil {
		plan = c.cfg.Plans[int(ev.BranchID)]
		if plan == nil {
			// Unknown branch ID: impossible in a fault-free run (the
			// interpreter only sends planned branches), so count it.
			c.st.quarantine(1)
			return
		}
		if !plan.Checked() {
			return
		}
		if b = t.bind(ev.Key1, plan, c.maxInstances); b < 0 {
			// Past the binding cap, or a Key1 crafted into a full binding
			// cluster.
			c.st.quarantine(1)
			return
		}
	}
	if i < 0 {
		if len(t.entries) >= c.maxInstances || slot == probeCapped {
			// Table flooded (runaway faulty loop), or a probe passed
			// maxProbe (keys crafted to collide): behave like a forced
			// generation flush so memory and probe cost stay bounded. The
			// Key1 binding survives the reset — trusting the established
			// Key1→plan binding, never the corruptible BranchID field.
			if slot == probeCapped {
				c.met.probeCloses.Inc()
			}
			c.closeGeneration(closeOverflow)
			slot = -1
		}
		i = t.insert(b, ev.Key1, ev.Key2, slot)
	}
	// A straggler report for an already-checked instance reopens it (add
	// clears the checked flag): the full set is re-checked (only possible
	// under fault, never in error-free runs).
	t.add(i, Report{Sig: ev.Sig, Thread: ev.Thread, Taken: ev.Taken})
	if t.entries[i].reported() >= c.cfg.NumThreads {
		c.checkInstance(i)
	}
}

// checkInstance validates entry i inline, buffering any violation for the
// generation's publish step. The instance stays in the table, so a
// straggler can still reopen it.
func (c *checker) checkInstance(i int32) {
	e := &c.tab.entries[i]
	if e.checked() {
		return
	}
	e.count |= flagBit
	c.instances.Add(1)
	b := &c.tab.binds[e.bind]
	if reason := CheckReports(b.plan, c.tab.reports(i)); reason != "" {
		c.genViolations = append(c.genViolations, Violation{
			BranchID: b.plan.BranchID,
			Key1:     b.key1,
			Key2:     e.key2,
			Reason:   reason,
		})
	}
}

// checkPending validates instances that never received all threads'
// reports (branches executed by a subset of threads); at least two
// reports are required for any cross-thread check.
func (c *checker) checkPending() {
	for i := range c.tab.entries {
		if e := &c.tab.entries[i]; !e.checked() && e.reported() >= 2 {
			c.checkInstance(int32(i))
		}
	}
}

// publishViolations sorts the generation's violations into canonical
// order and appends them to the violation log, so the log does not
// depend on the order instances were inserted in. Called from
// closeGeneration.
func (c *checker) publishViolations() {
	// Timed inline rather than with a defer: this runs on every
	// generation close, and a deferred closure would cost an allocation
	// plus defer overhead per generation when a registry is attached.
	var t0 time.Time
	if c.met.mergeNs != nil {
		t0 = time.Now()
	}
	if len(c.genViolations) > 0 {
		vs := c.genViolations
		sortViolations(vs)
		c.mu.Lock()
		c.violations = append(c.violations, vs...)
		c.mu.Unlock()
		c.detected.Store(true)
		c.genViolations = vs[:0]
	}
	if c.met.mergeNs != nil {
		c.met.mergeNs.Observe(time.Since(t0).Nanoseconds())
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
func (c *checker) Detected() bool { return c.detected.Load() }

// Violations returns a copy of the recorded violations.
func (c *checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Violation, len(c.violations))
	copy(out, c.violations)
	return out
}

// Summarize groups the recorded violations by static branch, ordered by
// descending count (diagnostics for localizing the corrupted branch).
func (c *checker) Summarize() []ViolationSummary {
	return SummarizeViolations(c.Violations())
}

// Health reports the degradation state. Safe to call from any goroutine.
func (c *checker) Health() HealthState { return c.st.Health() }

// Stats returns a snapshot of the checker's counters. Safe to call from
// any goroutine at any time; after the final check the values are final.
// Dropped, a front-end counter, is zero (a Monitor adds its drops).
func (c *checker) Stats() Stats {
	return Stats{
		Events:      c.events.Load(),
		Instances:   c.instances.Load(),
		Flushes:     c.flushes.Load(),
		Quarantined: c.st.quarantined.Load(),
		Watchdog:    c.watchdog.Load(),
		Panics:      c.panics.Load(),
	}
}

// Checker is the monitor's checker driven synchronously: the goroutine
// that already holds every thread's events in order — a daemon session's
// read loop, a trace replay — feeds them straight in with Feed, Flush and
// Done, and ends the run with Finish. There is no queue, no second
// goroutine and no copy on the way: events of a thread that is not gated
// are checked in place in the caller's slice. A gated thread's events
// (it flushed past the current barrier generation while another thread
// has not) wait in a per-thread buffer, in order, until the generation
// closes. The buffer is bounded by Config.QueueCap: a thread about to
// pass the bound force-closes the generation as the stall watchdog would
// (sound, counted in Stats.Watchdog, health Degraded), so no input ever
// blocks or grows memory without bound.
//
// Config.StallDeadline is evaluated at each input and at Finish: the
// checker's state cannot change between inputs, so a generation that
// has been stalled for the deadline when the next input arrives is
// force-closed before that input, as a timer would have closed it.
//
// A Checker fails open like a Monitor: a panic inside an input (a
// corrupt table, a faulty EventTap) is recovered into the Failed state,
// and every later input is counted as quarantined and discarded.
// Inputs must come from one goroutine; Stats, Violations, Detected and
// Health are safe from any goroutine. The zero Checker is ready for
// Reset, which reuses its buffers: a daemon keeps one per pooled
// session.
type Checker struct {
	checker
	own     status
	held    [][]Event // per-thread events waiting for the generation to close
	heldCap int
	ctl     [1]Event // Flush and Done input, fed as a one-event batch

	// Stall watchdog clock: lastProgress is when an event was last
	// processed; clock is the current input's time.
	lastProgress time.Time
	clock        time.Time
}

// NewChecker builds a Checker for cfg (see Reset).
func NewChecker(cfg Config) (*Checker, error) {
	c := &Checker{}
	if err := c.Reset(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset readies c for a new run of cfg, keeping its buffers. Of Config
// it uses NumThreads, Plans, QueueCap (the bound on one gated thread's
// buffered events), CheckingDisabled, MaxInstances, StallDeadline, Now,
// EventTap and Metrics; Overflow and SenderBatch configure a Monitor's
// front end and do not apply.
func (c *Checker) Reset(cfg Config) error {
	c.own.quarantined.Store(0)
	c.own.health.Store(int32(Healthy))
	if err := c.init(cfg, &c.own); err != nil {
		return err
	}
	c.heldCap = cfg.QueueCap
	if c.heldCap <= 0 {
		c.heldCap = DefaultQueueCap
	}
	if cap(c.held) < cfg.NumThreads {
		c.held = append(c.held[:cap(c.held)], make([][]Event, cfg.NumThreads-cap(c.held))...)
	}
	c.held = c.held[:cfg.NumThreads]
	for i := range c.held {
		c.held[i] = c.held[i][:0]
	}
	if cfg.StallDeadline > 0 {
		c.lastProgress = c.now()
	}
	return nil
}

// Feed checks evs, the next events of thread slot, in order. evs is not
// retained; an EventTap may modify it in place. An out-of-range slot's
// events are quarantined, and an empty evs is no input.
func (c *Checker) Feed(slot int, evs []Event) {
	if len(evs) == 0 {
		return
	}
	defer c.contain(len(evs))
	c.input(slot, evs)
}

// Flush inputs thread slot's barrier marker; thread is the marker's
// payload, which must equal slot.
func (c *Checker) Flush(slot int, thread int32) {
	defer c.contain(1)
	c.ctl[0] = Event{Kind: EvFlush, Thread: thread}
	c.input(slot, c.ctl[:])
}

// Done inputs thread slot's end-of-section marker; thread is the
// marker's payload, which must equal slot.
func (c *Checker) Done(slot int, thread int32) {
	defer c.contain(1)
	c.ctl[0] = Event{Kind: EvDone, Thread: thread}
	c.input(slot, c.ctl[:])
}

// Finish ends the run: generations that a thread never flushed are
// closed with the reports they have, the final pending check runs, and
// the table is handed on to the next checker in the process. Stats,
// Violations, Detected and Health are final afterwards; later inputs
// are quarantined. Finish is idempotent.
func (c *Checker) Finish() {
	defer c.contain(0)
	if c.tab != nil {
		c.watch()
		for c.backlog() {
			// Every thread with buffered events is gated: a thread is
			// missing its flush. Close the generation with what it has.
			c.closeGeneration(closeForced)
			c.release()
		}
		c.finish()
	}
	c.cfg.Plans, c.cfg.EventTap = nil, nil // pin nothing of the run
	for i, h := range c.held {
		if cap(h)*int(unsafe.Sizeof(Event{})) > heldRetainBytes {
			c.held[i] = nil
		}
	}
}

// heldRetainBytes caps a gated thread's buffer that Finish keeps for the
// checker's next run, like the wire reader's payload retention: a
// kernel whose thread runs a long generation ahead grows its buffer to
// hundreds of KiB, and a pooled checker that kept the largest backlog it
// ever buffered would pin that between runs. On bwperf kernels-remote
// (2 cores, 2 threads), keeping every buffer cost about 0.7 MiB more peak
// heap than this cap, and keeping none about 20 KiB more allocation per
// run.
const heldRetainBytes = 64 << 10

// contain is every input's deferred recover: a panic fails the checker
// open, and the interrupted input's n events and every buffered event
// are counted as quarantined.
func (c *Checker) contain(n int) {
	if r := recover(); r != nil {
		c.fail()
		for i, h := range c.held {
			n += len(h)
			c.held[i] = h[:0]
		}
		c.own.quarantine(n)
	}
}

// input checks thread slot's events in place while the thread is not
// gated and buffers the rest; a gated thread's buffer never passes
// heldCap. A generation that closes releases the buffered events of the
// threads it ungates.
func (c *Checker) input(slot int, evs []Event) {
	if c.tab == nil || slot < 0 || slot >= len(c.held) {
		c.own.quarantine(len(evs)) // failed, finished, or a corrupt slot
		return
	}
	c.watch()
	gens := c.flushedGens
	for len(evs) > 0 {
		if len(c.held[slot]) == 0 && !c.gated(slot) {
			n := c.run(slot, evs)
			c.progress(n)
			evs = evs[n:]
			continue
		}
		if len(c.held[slot])+len(evs) <= c.heldCap {
			c.held[slot] = append(c.held[slot], evs...)
			break
		}
		// The thread is about to pass its bound: another thread is
		// holding the generation open. Close it as the watchdog would.
		c.forceClose()
		c.release()
	}
	if c.flushedGens != gens {
		c.release()
	}
}

// release checks, in order, the buffered events of every thread that is
// no longer gated, until no buffer can make progress: releasing one
// thread's flush may close the generation another thread waits on.
func (c *Checker) release() {
	for again := true; again; {
		again = false
		for slot, h := range c.held {
			if len(h) == 0 || c.gated(slot) {
				continue
			}
			n := c.run(slot, h)
			c.progress(n)
			c.held[slot] = h[:copy(h, h[n:])]
			again = true
		}
	}
}

// backlog reports whether any thread has buffered events.
func (c *Checker) backlog() bool {
	for _, h := range c.held {
		if len(h) > 0 {
			return true
		}
	}
	return false
}

// progress notes that n events were processed at the current input's
// time, for the stall watchdog.
func (c *Checker) progress(n int) {
	if n > 0 {
		c.lastProgress = c.clock
	}
}

// watch is the stall watchdog, evaluated as an input arrives: while the
// checker is stalled — instances awaiting reports, or a gated thread's
// buffered events — and StallDeadline has passed since the last
// progress, the generation is force-closed at the time the watchdog's
// timer would have fired. The forced close releases buffered events,
// which is progress at that time, so one long silence can fire it more
// than once, exactly as a timer would.
func (c *Checker) watch() {
	d := c.cfg.StallDeadline
	if d <= 0 {
		return
	}
	now := c.now()
	for len(c.tab.entries) > 0 || c.backlog() {
		fire := c.lastProgress.Add(d)
		if now.Before(fire) {
			break
		}
		c.clock = fire
		c.forceClose()
		c.lastProgress = fire
		c.release()
	}
	c.clock = now
}
