package interp

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
	"blockwatch/internal/metrics"
	"blockwatch/internal/monitor"
)

// MonitorMode selects how the run interacts with the runtime monitor.
type MonitorMode int

// Monitor modes.
const (
	// MonitorOff: no instrumentation at all (the paper's baseline runs).
	MonitorOff MonitorMode = iota + 1
	// MonitorActive: events are sent and checked asynchronously.
	MonitorActive
	// MonitorDrainOnly: events are sent and drained but not checked — the
	// paper's 32-thread performance configuration ("the threads still send
	// the branch information ... the monitor does not do anything").
	MonitorDrainOnly
)

// Options configures a Run.
type Options struct {
	// Threads is the number of SPMD threads (must be ≥ 1).
	Threads int
	// Mode selects the monitor interaction; zero means MonitorOff.
	Mode MonitorMode
	// Plans is the check-plan table from core.Analyze; required unless
	// Mode is MonitorOff.
	Plans map[int]*core.CheckPlan
	// Fault, when non-nil, is invoked before every conditional branch.
	Fault FaultInjector
	// Cost overrides the simulated-cycle model (nil = defaults).
	Cost *CostModel
	// StepLimit is the per-thread instruction budget; exceeding it traps
	// the thread as hung. Zero means DefaultStepLimit.
	StepLimit uint64
	// Seed perturbs the rnd() streams (same seed ⇒ identical run).
	Seed uint64
	// QueueCap overrides the monitor queue capacity (0 = default).
	QueueCap int
	// Overflow selects the monitor's Sender overflow policy for branch
	// events (zero = OverflowBlock, the lossless default).
	Overflow monitor.OverflowPolicy
	// SendSpins bounds the OverflowBlockTimeout spin (0 = monitor default).
	SendSpins int
	// SenderBatch sets the per-thread Sender buffer size: branch events
	// are batched locally and published with one queue operation
	// (0 = monitor default, 1 = effectively unbatched).
	SenderBatch int
	// StallDeadline arms the monitor's stall watchdog (0 = disabled).
	StallDeadline time.Duration
	// Now overrides the watchdog clock (nil = time.Now; tests use a
	// virtual clock).
	Now func() time.Time
	// EventTap is the monitor-side event corruption hook (fault
	// injection's event-path model). Requires the flat monitor
	// (MonitorGroups ≤ 1).
	EventTap func(*monitor.Event)
	// MonitorGroups selects the hierarchical monitor extension with that
	// many sub-monitors (0 or 1 = the paper's single flat monitor).
	MonitorGroups int
	// Metrics, when non-nil, attaches the run-owned monitor's pipeline
	// metrics to this registry (no effect when Sink is supplied — an
	// external sink carries its own registry).
	Metrics *metrics.Registry
	// Sink, when non-nil, replaces the run-owned monitor with an
	// externally built event sink (a remote client, a trace recorder, or
	// any other monitor.Sink). The run Starts it, feeds it, Closes it, and
	// harvests Detected/Violations/Health (and Stats when the sink
	// provides them) exactly as it would from its own monitor. Plans are
	// still required — they select which branches are instrumented.
	// Incompatible with MonitorGroups > 1 and EventTap, and requires a
	// monitoring Mode.
	Sink monitor.Sink
	// Trace, when non-nil, receives one line per executed conditional
	// branch: "t<tid> branch#<id> seq=<k> taken=<bool>". Writes are
	// serialized; tracing is for debugging and slows execution.
	Trace io.Writer
}

// DefaultStepLimit is the per-thread instruction budget.
const DefaultStepLimit = 200_000_000

// TrapKind classifies thread failures.
type TrapKind int

// Trap kinds.
const (
	TrapOOB TrapKind = iota + 1
	TrapDivZero
	TrapStepLimit
	TrapDeadlock
	TrapStackOverflow
	TrapAborted
	TrapInternal
)

// String names the trap kind.
func (k TrapKind) String() string {
	switch k {
	case TrapOOB:
		return "out-of-bounds"
	case TrapDivZero:
		return "divide-by-zero"
	case TrapStepLimit:
		return "step-limit (hang)"
	case TrapDeadlock:
		return "deadlock (hang)"
	case TrapStackOverflow:
		return "stack-overflow"
	case TrapAborted:
		return "aborted"
	case TrapInternal:
		return "internal"
	}
	return fmt.Sprintf("TrapKind(%d)", int(k))
}

// Trap describes a thread failure (the analogue of a crash or hang in the
// paper's fault-injection outcome taxonomy).
type Trap struct {
	Thread int
	Kind   TrapKind
	Msg    string
}

// Error implements the error interface.
func (t *Trap) Error() string {
	return fmt.Sprintf("thread %d: %s: %s", t.Thread, t.Kind, t.Msg)
}

// Result is the outcome of one program run.
type Result struct {
	// Output is the deterministic program output: setup() outputs followed
	// by each thread's outputs in thread order.
	Output []Value
	// Traps lists per-thread failures (nil entries for clean threads).
	Traps []*Trap
	// SimTimes is each thread's simulated cycle count for the parallel
	// section; SimTime is their maximum (the parallel section's span).
	SimTimes []int64
	SimTime  int64
	// BranchCounts is the number of conditional branches each thread
	// executed (the fault injector's sampling space).
	BranchCounts []uint64
	// Detected reports whether the monitor flagged a violation.
	Detected bool
	// Violations are the monitor's reports.
	Violations []monitor.Violation
	// MonitorStats are the monitor-side counters (zero when MonitorOff).
	MonitorStats monitor.Stats
	// MonitorHealth is the monitor's fail-open degradation state at the
	// end of the run (Healthy when MonitorOff).
	MonitorHealth monitor.HealthState
	// EventCounts is the number of branch events each thread sent to the
	// monitor (the event-path fault injector's sampling space; nil when
	// MonitorOff).
	EventCounts []uint64
}

// Crashed reports whether any thread trapped with a crash-like failure.
func (r *Result) Crashed() bool {
	for _, t := range r.Traps {
		if t != nil && (t.Kind == TrapOOB || t.Kind == TrapDivZero ||
			t.Kind == TrapStackOverflow || t.Kind == TrapInternal) {
			return true
		}
	}
	return false
}

// Hung reports whether any thread trapped with a hang-like failure.
func (r *Result) Hung() bool {
	for _, t := range r.Traps {
		if t != nil && (t.Kind == TrapStepLimit || t.Kind == TrapDeadlock ||
			t.Kind == TrapAborted) {
			return true
		}
	}
	return false
}

// Clean reports whether every thread finished without a trap.
func (r *Result) Clean() bool { return !r.Crashed() && !r.Hung() }

// FaultInjector corrupts thread state at branch points. Implementations
// live in package inject; the zero interaction is to return false.
type FaultInjector interface {
	// BeforeBranch runs just before the condition of br is read. The
	// injector may corrupt register state via the thread's Corrupt
	// methods; returning true additionally flips the branch outcome (the
	// paper's flag-register fault).
	BeforeBranch(t *Thread, br *ir.Instr) (flip bool)
}

// Config errors.
var (
	ErrBadThreads   = errors.New("thread count must be at least 1")
	ErrNeedPlans    = errors.New("monitor mode requires check plans")
	ErrTapNeedsFlat = errors.New("EventTap requires the flat monitor (MonitorGroups ≤ 1)")
	ErrSinkOpts     = errors.New("Sink is incompatible with MonitorGroups > 1, EventTap, and MonitorOff")
)

// machine is the shared run state.
type machine struct {
	mod   *ir.Module
	opts  Options
	cost  *CostModel
	plans map[int]*core.CheckPlan
	mon   monitor.Sink

	mem     []Value // global memory image
	base    []int   // global slot offsets by Global.Index
	locks   lockSched
	barrier *simBarrier

	traceMu  sync.Mutex
	mu       sync.Mutex
	active   int // threads still running
	abortErr *Trap
	aborted  chan struct{}
	abortSet bool
}

const numLocks = 64

// Run executes the module's SPMD program: setup() once, then
// opts.Threads copies of slave() concurrently.
func Run(mod *ir.Module, opts Options) (*Result, error) {
	if opts.Threads < 1 {
		return nil, ErrBadThreads
	}
	if opts.Mode == 0 {
		opts.Mode = MonitorOff
	}
	if opts.Sink != nil && (opts.MonitorGroups > 1 || opts.EventTap != nil || opts.Mode == MonitorOff) {
		return nil, ErrSinkOpts
	}
	if opts.Mode != MonitorOff && opts.Plans == nil {
		return nil, ErrNeedPlans
	}
	slave := mod.Func("slave")
	if slave == nil {
		return nil, errors.New("module has no slave() function")
	}
	cost := opts.Cost
	if cost == nil {
		cost = DefaultCostModel()
	}
	m := &machine{
		mod:     mod,
		opts:    opts,
		cost:    cost,
		plans:   opts.Plans,
		active:  opts.Threads,
		aborted: make(chan struct{}),
	}
	m.locks.init(opts.Threads, cost.LockAcquire)
	m.layoutGlobals()
	m.barrier = newSimBarrier(m, opts.Threads, cost.barrierCost(opts.Threads))

	if opts.Sink != nil {
		m.mon = opts.Sink
		m.mon.Start()
	} else if opts.Mode != MonitorOff {
		mcfg := monitor.Config{
			NumThreads:       opts.Threads,
			Plans:            opts.Plans,
			QueueCap:         opts.QueueCap,
			CheckingDisabled: opts.Mode == MonitorDrainOnly,
			Overflow:         opts.Overflow,
			SendSpins:        opts.SendSpins,
			SenderBatch:      opts.SenderBatch,
			StallDeadline:    opts.StallDeadline,
			Now:              opts.Now,
			EventTap:         opts.EventTap,
			Metrics:          opts.Metrics,
		}
		if opts.MonitorGroups > 1 {
			if opts.EventTap != nil {
				return nil, ErrTapNeedsFlat
			}
			mon, err := monitor.NewHierarchical(mcfg, opts.MonitorGroups)
			if err != nil {
				return nil, fmt.Errorf("hierarchical monitor: %w", err)
			}
			m.mon = mon
		} else {
			mon, err := monitor.New(mcfg)
			if err != nil {
				return nil, fmt.Errorf("monitor: %w", err)
			}
			m.mon = mon
		}
		m.mon.Start()
	}

	res := &Result{
		Traps:        make([]*Trap, opts.Threads),
		SimTimes:     make([]int64, opts.Threads),
		BranchCounts: make([]uint64, opts.Threads),
	}
	if m.mon != nil {
		res.EventCounts = make([]uint64, opts.Threads)
	}

	// Phase 1: setup, single-threaded, not part of the parallel section.
	var setupOut []Value
	if setup := mod.Func("setup"); setup != nil {
		t := newThread(m, -1)
		if _, trap := t.call(setup, nil); trap != nil {
			if m.mon != nil {
				m.mon.Close()
			}
			return nil, fmt.Errorf("setup trapped: %w", trap)
		}
		setupOut = t.output
	}

	// Phase 2: the parallel section.
	outs := make([][]Value, opts.Threads)
	var wg sync.WaitGroup
	for tid := 0; tid < opts.Threads; tid++ {
		tid := tid
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newThread(m, tid)
			_, trap := t.call(slave, nil)
			m.releaseAll(t)
			if trap != nil {
				res.Traps[tid] = trap
			}
			outs[tid] = t.output
			res.SimTimes[tid] = t.sim
			res.BranchCounts[tid] = t.branchSeq
			if res.EventCounts != nil {
				res.EventCounts[tid] = t.eventSeq
			}
			m.threadExited(tid, trap)
			if t.sender != nil {
				// Routed through the thread's Sender so buffered branch
				// events are published before the done marker.
				t.sender.Send(monitor.Event{Kind: monitor.EvDone, Thread: int32(tid)})
			}
		}()
	}
	wg.Wait()

	if m.mon != nil {
		m.mon.Close()
		res.Detected = m.mon.Detected()
		res.Violations = m.mon.Violations()
		res.MonitorHealth = m.mon.Health()
		if sp, ok := m.mon.(interface{ Stats() monitor.Stats }); ok {
			res.MonitorStats = sp.Stats()
		}
	}
	res.Output = append(res.Output, setupOut...)
	for _, o := range outs {
		res.Output = append(res.Output, o...)
	}
	for _, s := range res.SimTimes {
		if s > res.SimTime {
			res.SimTime = s
		}
	}
	return res, nil
}

// layoutGlobals assigns each global a contiguous slot range in m.mem.
func (m *machine) layoutGlobals() {
	m.base = make([]int, len(m.mod.Globals))
	total := 0
	for i, g := range m.mod.Globals {
		m.base[g.Index] = total
		_ = i
		if g.IsArray {
			total += int(g.ArrayLen)
		} else {
			total++
		}
	}
	m.mem = make([]Value, total)
}

// threadExited updates liveness accounting and wakes barrier waiters so
// they can detect the deadlock a missing participant causes.
func (m *machine) threadExited(tid int, trap *Trap) {
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
	m.locks.exit(tid)
	m.barrier.threadGone()
	_ = trap
}

// abort stops all threads (deadlock or fatal trap elsewhere).
func (m *machine) abort(reason *Trap) {
	m.mu.Lock()
	if m.abortSet {
		m.mu.Unlock()
		return
	}
	m.abortSet = true
	m.abortErr = reason
	close(m.aborted)
	m.mu.Unlock()
	m.locks.wake()
}

func (m *machine) isAborted() bool {
	select {
	case <-m.aborted:
		return true
	default:
		return false
	}
}
