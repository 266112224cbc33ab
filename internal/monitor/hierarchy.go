package monitor

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"blockwatch/internal/queue"
)

// Hierarchical is the paper's Section VI proposed extension: "multiple
// monitor threads structured in a hierarchical fashion, each of which is
// assigned to a sub-group of threads". Each sub-monitor drains its
// thread group's lock-free queues and performs the checks that are
// conclusive within the group (any within-group divergence of a shared
// branch, any exact thread-ID relation mismatch). At every barrier
// generation — and at the end of the run — each sub-monitor forwards its
// per-instance report sets to the root, which merges groups and applies
// the full cross-thread checks.
type Hierarchical struct {
	frontEnd // queues indexed by global thread ID
	cfg      Config
	groups   int
	subs     []*subMonitor

	mu         sync.Mutex
	violations []Violation
	detected   atomic.Bool

	panics atomic.Uint64

	rootMu      sync.Mutex
	rootTbl     map[uint64]map[uint64]*level1 // generation → merged table
	rootGens    []uint64                      // generations closed per sub
	rootChecked uint64                        // generations fully checked

	started atomic.Bool
	stopped atomic.Bool
	wg      sync.WaitGroup
}

type subMonitor struct {
	h       *Hierarchical
	id      int
	threads []int                // global thread IDs owned by this sub-monitor
	queues  []*queue.SPSC[Event] // the front end's queues of those threads

	table        map[uint64]*level1
	numInstances int
	flushCount   []uint64
	doneSlots    []bool
	flushed      uint64
	doneCount    int
}

// ErrBadGroups reports an invalid group count.
var ErrBadGroups = errors.New("hierarchical monitor needs 1 ≤ groups ≤ threads")

// NewHierarchical builds a hierarchical monitor with the given number of
// sub-monitors. Threads are assigned to groups round-robin.
func NewHierarchical(cfg Config, groups int) (*Hierarchical, error) {
	if cfg.NumThreads < 1 {
		return nil, ErrNoThreads
	}
	if cfg.Plans == nil {
		return nil, ErrNoPlans
	}
	if groups < 1 || groups > cfg.NumThreads {
		return nil, ErrBadGroups
	}
	h := &Hierarchical{
		cfg:      cfg,
		groups:   groups,
		rootTbl:  make(map[uint64]map[uint64]*level1),
		rootGens: make([]uint64, groups),
	}
	err := h.initFrontEnd(cfg.NumThreads, cfg.QueueCap, cfg.Overflow, cfg.SendSpins, cfg.SenderBatch, frontEndMetrics{})
	if err != nil {
		return nil, err
	}
	h.subs = make([]*subMonitor, groups)
	for g := range h.subs {
		h.subs[g] = &subMonitor{h: h, id: g, table: make(map[uint64]*level1)}
	}
	for tid, q := range h.queues {
		sub := h.subs[tid%groups]
		sub.threads = append(sub.threads, tid)
		sub.queues = append(sub.queues, q)
		sub.flushCount = append(sub.flushCount, 0)
		sub.doneSlots = append(sub.doneSlots, false)
	}
	return h, nil
}

// Quarantined returns the count of malformed or straggler events skipped.
func (h *Hierarchical) Quarantined() uint64 { return h.quarantined.Load() }

// Start launches one goroutine per sub-monitor.
func (h *Hierarchical) Start() {
	if h.started.Swap(true) {
		return
	}
	for _, sub := range h.subs {
		sub := sub
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			sub.loop()
		}()
	}
}

// Close waits for every sub-monitor to finish (they exit after receiving
// EvDone from all their threads, or after draining once Close is called)
// and performs the final root check.
func (h *Hierarchical) Close() {
	if !h.started.Load() {
		for _, sub := range h.subs {
			sub.drainAll()
			sub.closeGeneration()
		}
	} else {
		h.stopped.Store(true)
		h.wg.Wait()
	}
	h.rootMu.Lock()
	for gen := range h.rootTbl {
		h.rootCheckGenLocked(gen)
	}
	h.rootMu.Unlock()
}

// Detected reports whether any violation was recorded.
func (h *Hierarchical) Detected() bool { return h.detected.Load() }

// Violations returns a copy of the recorded violations.
func (h *Hierarchical) Violations() []Violation {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Violation, len(h.violations))
	copy(out, h.violations)
	return out
}

func (h *Hierarchical) record(v Violation) {
	h.mu.Lock()
	h.violations = append(h.violations, v)
	h.mu.Unlock()
	h.detected.Store(true)
}

// loop drains the sub-monitor's queues until all of its threads are done.
// A panic in event processing is recovered into the Failed state with a
// failsafe drain, so this group's producers never wedge on a dead
// sub-monitor (the other groups keep checking).
func (s *subMonitor) loop() {
	defer func() {
		if r := recover(); r != nil {
			s.h.panics.Add(1)
			s.h.health.Store(int32(Failed))
			s.failsafe()
		}
	}()
	for {
		idle := true
		for i, q := range s.queues {
			for n := 0; n < 64 && s.flushCount[i] <= s.flushed; n++ {
				ev, ok := q.Pop()
				if !ok {
					break
				}
				idle = false
				s.process(i, ev)
			}
		}
		if s.doneCount >= len(s.threads) {
			s.closeGeneration()
			return
		}
		if idle {
			if s.h.stopped.Load() {
				// Producers are gone (fault runs may omit flushes/dones):
				// drain whatever is left and close out.
				s.drainAll()
				s.closeGeneration()
				return
			}
			runtime.Gosched()
		}
	}
}

func (s *subMonitor) drainAll() {
	for i, q := range s.queues {
		for {
			ev, ok := q.Pop()
			if !ok {
				break
			}
			s.process(i, ev)
		}
	}
}

// failsafe keeps discarding this group's queued events after a panic lost
// the sub-monitor's table state, so its producers stay unblocked until
// Close signals stop.
func (s *subMonitor) failsafe() {
	for {
		s.discardAll()
		if s.h.stopped.Load() {
			s.discardAll()
			return
		}
		runtime.Gosched()
	}
}

func (s *subMonitor) discardAll() {
	for _, q := range s.queues {
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
			s.h.quarantine(1)
		}
	}
}

// process mirrors Monitor.process: generation/liveness bookkeeping trusts
// the queue slot (which thread's queue the event came from), and events
// whose payload disagrees with their slot, arrive after the slot's done,
// or carry an unknown kind are quarantined.
func (s *subMonitor) process(slot int, ev Event) {
	switch ev.Kind {
	case EvFlush:
		if int(ev.Thread) != s.threads[slot] || s.doneSlots[slot] {
			s.h.quarantine(1)
			return
		}
		s.flushCount[slot]++
		s.maybeClose()
	case EvDone:
		if int(ev.Thread) != s.threads[slot] || s.doneSlots[slot] {
			s.h.quarantine(1)
			return
		}
		s.doneCount++
		s.doneSlots[slot] = true
		s.maybeClose()
	case EvBranch:
		if s.doneSlots[slot] {
			s.h.quarantine(1)
			return
		}
		if tid := int(ev.Thread); tid < 0 || tid >= s.h.cfg.NumThreads {
			s.h.quarantine(1)
			return
		}
		if s.h.cfg.CheckingDisabled {
			return
		}
		s.insert(ev)
	default:
		s.h.quarantine(1)
	}
}

// maybeClose closes generations once every live thread of the group has
// flushed past them (finished threads cannot hold a generation open).
func (s *subMonitor) maybeClose() {
	min := ^uint64(0)
	live := 0
	for i, c := range s.flushCount {
		if s.doneSlots[i] {
			continue
		}
		live++
		if c < min {
			min = c
		}
	}
	if live == 0 {
		return
	}
	for s.flushed < min {
		s.closeGeneration()
		s.flushed++
	}
}

func (s *subMonitor) insert(ev Event) {
	l1, ok := s.table[ev.Key1]
	if !ok {
		plan := s.h.cfg.Plans[int(ev.BranchID)]
		if plan == nil {
			s.h.quarantine(1) // unknown branch ID: impossible fault-free
			return
		}
		if !plan.Checked() {
			return
		}
		l1 = &level1{plan: plan, instances: make(map[uint64]*instance)}
		s.table[ev.Key1] = l1
	}
	inst, ok := l1.instances[ev.Key2]
	if !ok {
		maxInst := s.h.cfg.MaxInstances
		if maxInst <= 0 {
			maxInst = DefaultMaxInstances
		}
		if s.numInstances >= maxInst/len(s.h.subs) {
			plan := l1.plan     // keep the known-good plan, not a BranchID re-lookup
			s.closeGeneration() // bounded memory under runaway faults
			l1 = &level1{plan: plan, instances: make(map[uint64]*instance)}
			s.table[ev.Key1] = l1
		}
		inst = &instance{reports: make([]Report, 0, len(s.threads))}
		l1.instances[ev.Key2] = inst
		s.numInstances++
	}
	inst.reports = append(inst.reports, Report{Thread: ev.Thread, Sig: ev.Sig, Taken: ev.Taken})
	// Early, group-local detection: any inconsistency among a subset of
	// threads is already a global inconsistency (the check rules are
	// subset-closed).
	if len(inst.reports) >= 2 && !inst.checked {
		if reason := CheckReports(l1.plan, inst.reports); reason != "" {
			inst.checked = true
			s.h.record(Violation{
				BranchID: l1.plan.BranchID, Key1: ev.Key1, Key2: ev.Key2,
				Reason: "group-local: " + reason,
			})
		}
	}
}

// closeGeneration forwards the group's tables to the root under the
// group's current generation and clears them. Per-generation root tables
// keep a fast group's post-barrier reports separate from a slow group's
// pre-barrier reports for the same keys. When every group has closed a
// generation, the root checks its merged reports.
func (s *subMonitor) closeGeneration() {
	h := s.h
	h.rootMu.Lock()
	defer h.rootMu.Unlock()
	gen := h.rootGens[s.id]
	tbl, ok := h.rootTbl[gen]
	if !ok {
		tbl = make(map[uint64]*level1)
		h.rootTbl[gen] = tbl
	}
	for k1, l1 := range s.table {
		dst, ok := tbl[k1]
		if !ok {
			dst = &level1{plan: l1.plan, instances: make(map[uint64]*instance)}
			tbl[k1] = dst
		}
		for k2, inst := range l1.instances {
			d, ok := dst.instances[k2]
			if !ok {
				d = &instance{}
				dst.instances[k2] = d
			}
			d.reports = append(d.reports, inst.reports...)
			if inst.checked {
				d.checked = true // already reported group-locally
			}
		}
	}
	s.table = make(map[uint64]*level1)
	s.numInstances = 0
	h.rootGens[s.id]++
	min := h.rootGens[0]
	for _, g := range h.rootGens[1:] {
		if g < min {
			min = g
		}
	}
	for h.rootChecked < min {
		h.rootCheckGenLocked(h.rootChecked)
		h.rootChecked++
	}
}

// rootCheckGenLocked applies the full checks to one generation's merged
// instances and drops the generation. Caller holds rootMu.
func (h *Hierarchical) rootCheckGenLocked(gen uint64) {
	tbl, ok := h.rootTbl[gen]
	if !ok {
		return
	}
	for k1, l1 := range tbl {
		for k2, inst := range l1.instances {
			if inst.checked || len(inst.reports) < 2 {
				continue
			}
			if reason := CheckReports(l1.plan, inst.reports); reason != "" {
				h.record(Violation{
					BranchID: l1.plan.BranchID, Key1: k1, Key2: k2, Reason: reason,
				})
			}
		}
	}
	delete(h.rootTbl, gen)
}
