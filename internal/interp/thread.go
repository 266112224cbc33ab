package interp

import (
	"fmt"
	"math"
	"sync/atomic"

	"blockwatch/internal/ir"
	"blockwatch/internal/monitor"
)

// maxCallDepth bounds MiniC recursion.
const maxCallDepth = 10000

// Thread is one SPMD execution context. The fault injector receives the
// thread in its BeforeBranch hook and may inspect and corrupt its state
// through the exported methods.
type Thread struct {
	m      *machine
	tid    int
	sender *monitor.Sender // batching queue endpoint; nil when MonitorOff or setup context

	sim       int64
	steps     uint64
	stepLimit uint64
	branchSeq uint64
	eventSeq  uint64 // branch events sent to the monitor
	output    []Value
	rng       uint64
	pathHash  uint64
	loopStack []uint64
	loopKeys  []uint64 // loopKeys[i]: Key2 of loopStack[:i]; see key2
	depth     int
	held      []uint64
	fr        *frame
	frames    []*frame      // by call depth, reused across calls
	resumePC  int32         // pc after the barrier the thread last reached
	phiBuf    []Value       // parallel-copy scratch for the phis of an edge
	fault     FaultInjector // Options.Fault; nil for the setup context

	// Cached per-run costs.
	memCost, sendCost int64
}

// frame is one activation. A thread's frames are reused by every call at
// the same depth: regs is re-sliced and reset from the callee's template
// per call.
type frame struct {
	fn   *function
	regs []Value
}

// loopKeyBase is the Key2 of an empty loop stack.
const loopKeyBase = 0x517cc1b727220a95

// newThread creates an execution context; tid -1 is the serial setup
// context (single-"core" memory costs, excluded from the parallel section).
func newThread(m *machine, tid int) *Thread {
	t := &Thread{
		m:         m,
		tid:       tid,
		stepLimit: m.opts.StepLimit,
		rng:       mix64(m.opts.Seed ^ uint64(tid+2)*0x9e3779b97f4a7c15),
		loopKeys:  []uint64{loopKeyBase},
	}
	if t.stepLimit == 0 {
		t.stepLimit = DefaultStepLimit
	}
	if tid >= 0 {
		t.fault = m.opts.Fault
		if m.mon != nil {
			t.sender = m.mon.Sender(tid)
		}
	}
	n := m.opts.Threads
	if tid < 0 {
		n = 1
	}
	t.memCost = m.cost.memCost(n)
	t.sendCost = m.cost.sendCost(n)
	return t
}

// Tid returns the thread's ID (-1 for the setup context).
func (t *Thread) Tid() int { return t.tid }

// BranchSeq returns the number of conditional branches the thread has
// executed so far, counting the one currently being executed.
func (t *Thread) BranchSeq() uint64 { return t.branchSeq }

// CondOperands returns the corruptible source values of a branch
// condition: the operands of the defining comparison, or the condition
// value itself when it is not a comparison.
func (t *Thread) CondOperands(br *ir.Instr) []ir.Value {
	if cmp, ok := br.Args[0].(*ir.Instr); ok && cmp.Op.IsCompare() {
		return cmp.Args
	}
	return []ir.Value{br.Args[0]}
}

// ReadValue reads the current runtime value of v in the active frame.
func (t *Thread) ReadValue(v ir.Value) Value { return t.val(v) }

// CorruptBit flips one bit of v's runtime storage and reports whether the
// value was corruptible (constants are immutable operands and cannot hold
// a persistent corruption). The corruption persists: later uses of the
// same SSA value observe the flipped bit, mirroring the paper's
// condition-variable faults.
func (t *Thread) CorruptBit(v ir.Value, bit uint) bool {
	bit &= 63
	switch x := v.(type) {
	case *ir.Instr:
		t.fr.regs[x.ID] ^= 1 << bit
		return true
	case *ir.Param:
		t.fr.regs[t.fr.fn.params+int32(x.Idx)] ^= 1 << bit
		return true
	}
	return false
}

// val reads an IR operand in the active frame. Decoded code and checked
// branches read slots; only the fault hook, which names IR values, comes
// through here.
func (t *Thread) val(v ir.Value) Value {
	switch x := v.(type) {
	case *ir.Instr:
		return t.fr.regs[x.ID]
	case *ir.Const:
		return constBits(x)
	case *ir.Param:
		return t.fr.regs[t.fr.fn.params+int32(x.Idx)]
	}
	return 0
}

func (t *Thread) trap(kind TrapKind, format string, args ...any) *Trap {
	return &Trap{Thread: t.tid, Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// call executes fn with the arguments in the caller's slots args of from
// and returns its result. The activation reuses the thread's frame at the
// new depth: its registers start as fn's template, with the arguments
// written straight into the parameter slots.
func (t *Thread) call(fn *function, args []int32, from []Value) (Value, *Trap) {
	if t.depth >= maxCallDepth {
		return 0, t.trap(TrapStackOverflow, "call depth %d", t.depth)
	}
	if t.depth == len(t.frames) {
		t.frames = append(t.frames, &frame{})
	}
	fr := t.frames[t.depth]
	n := len(fn.regs)
	if cap(fr.regs) < n {
		fr.regs = make([]Value, n)
	}
	fr.regs = fr.regs[:n]
	copy(fr.regs, fn.regs)
	params := fr.regs[fn.params:]
	for i, s := range args {
		params[i] = from[s]
	}
	fr.fn = fn
	caller := t.fr
	t.fr = fr
	t.depth++
	pc, trap := t.enter(fn, fr.regs, &fn.entry)
	var ret Value
	if trap == nil {
		ret, trap = t.exec(fn, fr.regs, pc)
	}
	t.fr = caller
	t.depth--
	return ret, trap
}

// enter takes edge e of fn: it runs the target block's phis as a parallel
// copy and returns the pc the edge lands on.
func (t *Thread) enter(fn *function, regs []Value, e *edge) (int32, *Trap) {
	if e.bad {
		return 0, &Trap{Thread: t.tid, Kind: TrapInternal, Msg: fn.bad[e.pc]}
	}
	if e.lo < e.hi {
		moves := fn.moves[e.lo:e.hi]
		if e.scratch {
			vals := t.phiBuf[:0]
			for _, mv := range moves {
				vals = append(vals, regs[mv.src])
			}
			for i, mv := range moves {
				regs[mv.dst] = vals[i]
			}
			t.phiBuf = vals
		} else {
			for _, mv := range moves {
				regs[mv.dst] = regs[mv.src]
			}
		}
		n := len(moves)
		t.sim += int64(n) * t.m.cost.Default
		t.steps += uint64(n)
	}
	return e.pc, nil
}

// exec runs fn in the active frame, whose register file is regs, from
// pc.
func (t *Thread) exec(fn *function, regs []Value, pc int32) (Value, *Trap) {
	c := t.m.cost
	mem, globals := t.m.mem, t.m.prog.globals
	code := fn.code
	var trap *Trap
	for {
		in := &code[pc]
		t.steps++
		if t.steps > t.stepLimit {
			return 0, t.trap(TrapStepLimit, "exceeded %d steps", t.stepLimit)
		}
		if t.steps&1023 == 0 && t.m.isAborted() {
			return 0, t.trap(TrapAborted, "machine aborted")
		}
		pc++
		switch in.op {
		case opAddI:
			t.sim += c.Default
			regs[in.dst] = IntVal(AsInt(regs[in.a]) + AsInt(regs[in.b]))
		case opSubI:
			t.sim += c.Default
			regs[in.dst] = IntVal(AsInt(regs[in.a]) - AsInt(regs[in.b]))
		case opMulI:
			t.sim += c.Default
			regs[in.dst] = IntVal(AsInt(regs[in.a]) * AsInt(regs[in.b]))
		case opDivI:
			t.sim += c.Default
			y := AsInt(regs[in.b])
			if y == 0 {
				return 0, t.trap(TrapDivZero, "integer division by zero")
			}
			regs[in.dst] = IntVal(AsInt(regs[in.a]) / y)
		case opRemI:
			t.sim += c.Default
			y := AsInt(regs[in.b])
			if y == 0 {
				return 0, t.trap(TrapDivZero, "integer remainder by zero")
			}
			regs[in.dst] = IntVal(AsInt(regs[in.a]) % y)
		case opAddF:
			t.sim += c.Default
			regs[in.dst] = FloatVal(AsFloat(regs[in.a]) + AsFloat(regs[in.b]))
		case opSubF:
			t.sim += c.Default
			regs[in.dst] = FloatVal(AsFloat(regs[in.a]) - AsFloat(regs[in.b]))
		case opMulF:
			t.sim += c.Default
			regs[in.dst] = FloatVal(AsFloat(regs[in.a]) * AsFloat(regs[in.b]))
		case opDivF:
			t.sim += c.Default
			regs[in.dst] = FloatVal(AsFloat(regs[in.a]) / AsFloat(regs[in.b])) // IEEE: ±Inf/NaN, no trap
		case opRemF:
			t.sim += c.Default
			regs[in.dst] = FloatVal(0)
		case opNegI:
			t.sim += c.Default
			regs[in.dst] = IntVal(-AsInt(regs[in.a]))
		case opNegF:
			t.sim += c.Default
			regs[in.dst] = FloatVal(-AsFloat(regs[in.a]))
		case opNot:
			t.sim += c.Default
			regs[in.dst] = BoolVal(!AsBool(regs[in.a]))
		case opEqI:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsInt(regs[in.a]) == AsInt(regs[in.b]))
		case opNeI:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsInt(regs[in.a]) != AsInt(regs[in.b]))
		case opLtI:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsInt(regs[in.a]) < AsInt(regs[in.b]))
		case opLeI:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsInt(regs[in.a]) <= AsInt(regs[in.b]))
		case opGtI:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsInt(regs[in.a]) > AsInt(regs[in.b]))
		case opGeI:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsInt(regs[in.a]) >= AsInt(regs[in.b]))
		case opEqF:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsFloat(regs[in.a]) == AsFloat(regs[in.b]))
		case opNeF:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsFloat(regs[in.a]) != AsFloat(regs[in.b]))
		case opLtF:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsFloat(regs[in.a]) < AsFloat(regs[in.b]))
		case opLeF:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsFloat(regs[in.a]) <= AsFloat(regs[in.b]))
		case opGtF:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsFloat(regs[in.a]) > AsFloat(regs[in.b]))
		case opGeF:
			t.sim += c.Default
			regs[in.dst] = BoolVal(AsFloat(regs[in.a]) >= AsFloat(regs[in.b]))
		case opI2F:
			t.sim += c.Default
			regs[in.dst] = FloatVal(float64(AsInt(regs[in.a])))
		case opF2I:
			t.sim += c.Default
			f := AsFloat(regs[in.a])
			if math.IsNaN(f) {
				f = 0
			}
			f = math.Max(math.Min(f, math.MaxInt64), math.MinInt64)
			regs[in.dst] = IntVal(int64(f))
		case opLoad:
			t.sim += t.memCost
			// Word-atomic: SPMD threads share globals without locks, and a
			// faulty thread can race another on the same word.
			regs[in.dst] = atomic.LoadUint64(&mem[globals[in.aux].base])
		case opLoadIdx:
			t.sim += t.memCost
			addr, trap := t.index(&globals[in.aux], regs[in.a])
			if trap != nil {
				return 0, trap
			}
			regs[in.dst] = atomic.LoadUint64(&mem[addr])
		case opStore:
			t.sim += t.memCost
			atomic.StoreUint64(&mem[globals[in.aux].base], regs[in.a])
		case opStoreIdx:
			t.sim += t.memCost
			addr, trap := t.index(&globals[in.aux], regs[in.a])
			if trap != nil {
				return 0, trap
			}
			atomic.StoreUint64(&mem[addr], regs[in.b])
		case opCall:
			t.sim += c.Call
			cs := &fn.calls[in.aux]
			if cs.fn == nil {
				return 0, t.trap(TrapInternal, "unknown function %s", fn.src[pc-1].Callee)
			}
			savedPath := t.pathHash
			t.pathHash = hashCombine(t.pathHash, cs.site)
			ret, trap := t.call(cs.fn, cs.args, regs)
			t.pathHash = savedPath
			if trap != nil {
				return 0, trap
			}
			if in.dst >= 0 {
				regs[in.dst] = ret
			}
		case opTid:
			t.sim += c.Default
			regs[in.dst] = IntVal(int64(t.tid))
		case opNthreads:
			t.sim += c.Default
			regs[in.dst] = IntVal(int64(t.m.opts.Threads))
		case opRnd:
			t.sim += c.Default
			t.rng = t.rng*6364136223846793005 + 1442695040888963407
			regs[in.dst] = IntVal(int64(t.rng >> 33))
		case opAbs:
			t.sim += c.Default
			v := AsInt(regs[in.a])
			if v < 0 {
				v = -v
			}
			regs[in.dst] = IntVal(v)
		case opMin:
			t.sim += c.Default
			regs[in.dst] = IntVal(min(AsInt(regs[in.a]), AsInt(regs[in.b])))
		case opMax:
			t.sim += c.Default
			regs[in.dst] = IntVal(max(AsInt(regs[in.a]), AsInt(regs[in.b])))
		case opFabs:
			t.sim += c.MathFn
			regs[in.dst] = FloatVal(math.Abs(AsFloat(regs[in.a])))
		case opSqrt:
			t.sim += c.MathFn
			regs[in.dst] = FloatVal(math.Sqrt(AsFloat(regs[in.a])))
		case opSin:
			t.sim += c.MathFn
			regs[in.dst] = FloatVal(math.Sin(AsFloat(regs[in.a])))
		case opCos:
			t.sim += c.MathFn
			regs[in.dst] = FloatVal(math.Cos(AsFloat(regs[in.a])))
		case opExp:
			t.sim += c.MathFn
			regs[in.dst] = FloatVal(math.Exp(AsFloat(regs[in.a])))
		case opLock:
			t.sim += c.Default
			if trap := t.m.acquire(t, AsInt(regs[in.a])); trap != nil {
				return 0, trap
			}
		case opUnlock:
			t.sim += c.Default
			if trap := t.m.release(t, AsInt(regs[in.a])); trap != nil {
				return 0, trap
			}
		case opBarrier:
			if t.tid < 0 {
				return 0, t.trap(TrapInternal, "barrier in setup()")
			}
			if t.sender != nil {
				// Control events flush the Sender's buffer first, so the
				// batch never crosses the barrier.
				t.sender.Send(monitor.Event{Kind: monitor.EvFlush, Thread: int32(t.tid)})
			}
			t.resumePC = pc
			if trap := t.m.barrier.wait(t); trap != nil {
				return 0, trap
			}
		case opOutput:
			t.sim += c.Output
			t.output = append(t.output, regs[in.a])
		case opLoopPush:
			t.sim += c.Default
			t.loopPush()
		case opLoopInc:
			t.sim += c.Default
			t.loopInc()
		case opLoopPop:
			t.sim += c.Default
			t.loopPop()
		case opBr:
			e := in.aux
			if !t.branch(fn.src[pc-1], in, regs) {
				e++
			}
			if pc, trap = t.enter(fn, regs, &fn.edges[e]); trap != nil {
				return 0, trap
			}
		case opJmp:
			t.sim += c.Default
			if pc, trap = t.enter(fn, regs, &fn.edges[in.aux]); trap != nil {
				return 0, trap
			}
		case opRet:
			t.sim += c.Default
			return regs[in.a], nil
		case opRetVoid:
			t.sim += c.Default
			return 0, nil
		case opBad:
			return 0, &Trap{Thread: t.tid, Kind: TrapInternal, Msg: fn.bad[in.aux]}
		}
	}
}

// branch runs conditional branch in (IR instruction br): the fault hook,
// the monitor event when the branch is checked and the trace line. It
// reports whether the branch is taken.
func (t *Thread) branch(br *ir.Instr, in *instr, regs []Value) bool {
	t.branchSeq++
	t.sim += t.m.cost.Default
	flip := false
	if t.fault != nil {
		flip = t.fault.BeforeBranch(t, br)
	}
	taken := AsBool(regs[in.a])
	if flip {
		taken = !taken
	}
	id := int(in.dst)
	if t.sender != nil && uint(id) < uint(len(t.m.sigs)) {
		if sp := &t.m.sigs[id]; sp.on {
			sig := sp.seed
			if sp.raw >= 0 {
				sig = regs[sp.raw]
			} else {
				for _, op := range t.m.sigOps[sp.lo:sp.hi] {
					v := op.mixed
					if op.slot >= 0 {
						v = mix64(regs[op.slot])
					}
					sig = mix64(sig ^ v)
				}
			}
			t.sender.Send(monitor.Event{
				Kind:     monitor.EvBranch,
				Taken:    taken,
				Thread:   int32(t.tid),
				BranchID: int32(id),
				Key1:     mix64(t.pathHash ^ sp.idMix),
				Key2:     t.key2(),
				Sig:      sig,
			})
			t.eventSeq++
			t.sim += t.sendCost
		}
	}
	if t.m.opts.Trace != nil {
		t.m.traceMu.Lock()
		fmt.Fprintf(t.m.opts.Trace, "t%d branch#%d seq=%d taken=%t\n",
			t.tid, id, t.branchSeq, taken)
		t.m.traceMu.Unlock()
	}
	return taken
}

// The loop-iteration stack and its Key2 prefix hashes move together:
// loopKeys[i+1] = hashCombine(loopKeys[i], loopStack[i]), so the Key2 of
// the whole stack — the fold of hashCombine over it from loopKeyBase — is
// the top of loopKeys, and each loop op rehashes only the top.

func (t *Thread) loopPush() {
	t.loopStack = append(t.loopStack, 0)
	t.loopKeys = append(t.loopKeys, hashCombine(t.loopKeys[len(t.loopKeys)-1], 0))
}

func (t *Thread) loopInc() {
	top := len(t.loopStack) - 1
	t.loopStack[top]++
	t.loopKeys[top+1] = hashCombine(t.loopKeys[top], t.loopStack[top])
}

func (t *Thread) loopPop() {
	t.loopStack = t.loopStack[:len(t.loopStack)-1]
	t.loopKeys = t.loopKeys[:len(t.loopKeys)-1]
}

// key2 is the current loop-iteration key (the paper's second-level key).
func (t *Thread) key2() uint64 { return t.loopKeys[len(t.loopKeys)-1] }

// index bounds-checks an array access and returns its memory slot.
func (t *Thread) index(g *global, i Value) (int, *Trap) {
	idx := AsInt(i)
	if idx < 0 || idx >= g.n {
		return 0, t.trap(TrapOOB, "%s[%d] out of bounds (len %d)", g.name, idx, g.n)
	}
	return g.base + int(idx), nil
}
