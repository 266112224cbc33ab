package interp

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"blockwatch/internal/core"
	"blockwatch/internal/ir"
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
	// Sink is the event sink the run drives (a monitor built with
	// monitor.New, a remote client, a trace recorder, ...): the run Starts,
	// feeds and Closes it and harvests its verdict, health and stats. Every
	// monitor setting belongs to the sink. When Sink is nil and Mode
	// monitors, the run builds monitor.New(Config{NumThreads, Plans,
	// CheckingDisabled}). A Sink requires a monitoring Mode, and Plans,
	// which select the instrumented branches.
	Sink monitor.Sink
	// Trace, when non-nil, receives one line per executed conditional
	// branch: "t<tid> branch#<id> seq=<k> taken=<bool>". Writes are
	// serialized; tracing is for debugging and slows execution.
	Trace io.Writer
	// Stop, when non-nil, is polled by the parallel section's threads
	// every 1024 steps; once it returns true the machine aborts as on a
	// deadlock: every thread traps TrapAborted, and barrier and lock
	// waiters are released. It is called from the threads' goroutines
	// concurrently and must be cheap. A fault campaign uses it to end a
	// run whose outcome is already decided.
	Stop func() bool
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
	ErrBadThreads = errors.New("thread count must be at least 1")
	ErrNeedPlans  = errors.New("monitor mode requires check plans")
	ErrSinkOpts   = errors.New("Sink requires a monitoring Mode")
)

// machine is the shared run state.
type machine struct {
	prog   *program
	opts   Options
	cost   *CostModel
	sigs   []sigPlan // checked branches by BranchID; zero elsewhere
	sigOps []sigOp   // the hashed operands of sigs
	mon    monitor.Sink

	mem     []Value // global memory image
	locks   lockSched
	barrier *simBarrier

	traceMu  sync.Mutex
	mu       sync.Mutex
	active   int // threads still running
	aborted  chan struct{}
	abortSet bool
	stop     func() bool // opts.Stop, armed once setup() has run
}

const numLocks = 64

// sigPlan is a checked branch compiled against its function's register
// file, once per Run: Thread.branch builds the branch's event from it
// and the frame's registers, without reading the IR or the plan.
type sigPlan struct {
	idMix  uint64 // mix64(BranchID), so Key1 is mix64(pathHash ^ idMix)
	seed   uint64 // the signature before ops[lo:hi] are hashed into it
	lo, hi int32  // the branch's hashed operands in machine.sigOps
	raw    int32  // slot of a single-operand signature, sent raw; -1 when hashed
	on     bool   // the branch is checked
}

// sigOp is a hashed signature operand: a register slot, or, when slot is
// negative, a constant already passed through mix64.
type sigOp struct {
	slot  int32
	mixed uint64
}

// sigSeed opens every hashed signature.
const sigSeed = 0x9e3779b97f4a7c15

// compileSigs indexes the checked plans by BranchID and resolves their
// signature operands to the slots of each branch's function. Single-
// operand signatures are sent raw so the monitor can evaluate thread-ID
// relations exactly; the others hash their operands in order from
// sigSeed, with a leading run of constants folded into the seed.
func compileSigs(prog *program, plans map[int]*core.CheckPlan) ([]sigPlan, []sigOp) {
	n := 0
	for id, p := range plans {
		if p != nil && p.Checked() && id >= n {
			n = id + 1
		}
	}
	sigs := make([]sigPlan, n)
	var ops []sigOp
	for id, p := range plans {
		if p == nil || !p.Checked() || id < 0 || id >= len(prog.branchFns) || prog.branchFns[id] == nil {
			continue // unchecked, or a branch the program does not have
		}
		fn := prog.branchFns[id]
		sp := sigPlan{idMix: mix64(uint64(id)), raw: -1, on: true}
		args := p.SigArgs
		if len(args) == 1 {
			if slot, c := fn.operand(args[0]); slot >= 0 {
				sp.raw = slot
			} else {
				sp.seed = c
			}
		} else {
			sp.seed = sigSeed
			for len(args) > 0 {
				slot, c := fn.operand(args[0])
				if slot >= 0 {
					break
				}
				sp.seed = hashCombine(sp.seed, c)
				args = args[1:]
			}
			sp.lo = int32(len(ops))
			for _, a := range args {
				slot, c := fn.operand(a)
				ops = append(ops, sigOp{slot: slot, mixed: mix64(c)})
			}
			sp.hi = int32(len(ops))
		}
		sigs[id] = sp
	}
	return sigs, ops
}

// operand resolves an IR operand of fn to its register slot, or to a
// negative slot and its constant value. Operands that are neither
// values nor parameters read as constants, as the decoder's slots do.
func (fn *function) operand(v ir.Value) (slot int32, c Value) {
	switch x := v.(type) {
	case *ir.Instr:
		return int32(x.ID), 0
	case *ir.Param:
		return fn.params + int32(x.Idx), 0
	case *ir.Const:
		return -1, constBits(x)
	}
	return -1, 0
}

// Run executes the module's SPMD program: setup() once, then
// opts.Threads copies of slave() concurrently.
func Run(mod *ir.Module, opts Options) (*Result, error) {
	if opts.Threads < 1 {
		return nil, ErrBadThreads
	}
	if opts.Mode == 0 {
		opts.Mode = MonitorOff
	}
	if opts.Sink != nil && opts.Mode == MonitorOff {
		return nil, ErrSinkOpts
	}
	if opts.Mode != MonitorOff && opts.Plans == nil {
		return nil, ErrNeedPlans
	}
	prog := decoded(mod)
	if prog.slave == nil {
		return nil, errors.New("module has no slave() function")
	}
	cost := opts.Cost
	if cost == nil {
		cost = DefaultCostModel()
	}
	m := &machine{
		prog:    prog,
		opts:    opts,
		mem:     make([]Value, prog.memSize),
		cost:    cost,
		active:  opts.Threads,
		aborted: make(chan struct{}),
	}
	m.sigs, m.sigOps = compileSigs(prog, opts.Plans)
	m.locks.init(opts.Threads, cost.LockAcquire)
	m.barrier = newSimBarrier(m, opts.Threads, cost.barrierCost(opts.Threads))

	if opts.Sink != nil {
		m.mon = opts.Sink
		m.mon.Start()
	} else if opts.Mode != MonitorOff {
		mon, err := monitor.New(monitor.Config{
			NumThreads:       opts.Threads,
			Plans:            opts.Plans,
			CheckingDisabled: opts.Mode == MonitorDrainOnly,
		})
		if err != nil {
			return nil, fmt.Errorf("monitor: %w", err)
		}
		m.mon = mon
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
	if prog.setup != nil {
		t := newThread(m, -1)
		if _, trap := t.call(prog.setup, nil, nil); trap != nil {
			if m.mon != nil {
				m.mon.Close()
			}
			return nil, fmt.Errorf("setup trapped: %w", trap)
		}
		setupOut = t.output
	}

	// Phase 2: the parallel section.
	m.stop = opts.Stop
	outs := make([][]Value, opts.Threads)
	var wg sync.WaitGroup
	for tid := 0; tid < opts.Threads; tid++ {
		tid := tid
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newThread(m, tid)
			_, trap := t.call(prog.slave, nil, nil)
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
			m.threadExited(tid)
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
		res.MonitorStats = m.mon.Stats()
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

// threadExited updates liveness accounting and wakes barrier waiters so
// they can detect the deadlock a missing participant causes.
func (m *machine) threadExited(tid int) {
	m.mu.Lock()
	m.active--
	m.mu.Unlock()
	m.locks.exit(tid)
	m.barrier.threadGone()
}

// abort stops all threads (a deadlock, or the Stop hook fired).
func (m *machine) abort() {
	m.mu.Lock()
	if m.abortSet {
		m.mu.Unlock()
		return
	}
	m.abortSet = true
	close(m.aborted)
	m.mu.Unlock()
	m.locks.wake()
}

// isAborted reports whether the machine has aborted, aborting it first
// when the Stop hook fires. Only a running thread polls the hook: the
// barrier and lock wait loops hold their locks, and check abortedNow.
func (m *machine) isAborted() bool {
	if m.stop != nil && !m.abortedNow() && m.stop() {
		m.abort()
	}
	return m.abortedNow()
}

// abortedNow reports whether the machine has aborted, without polling
// the Stop hook.
func (m *machine) abortedNow() bool {
	select {
	case <-m.aborted:
		return true
	default:
		return false
	}
}
