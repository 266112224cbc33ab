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
	frames    []*frame // by call depth, reused across calls
	phiBuf    []Value  // parallel-copy scratch for block-entry phis

	// Cached per-run costs.
	memCost, sendCost int64
}

// frame is one activation. A thread's frames are reused by every call at
// the same depth: regs is re-sliced and cleared per call, and args is the
// argument buffer this frame passes to its callees (the callee's params).
type frame struct {
	fn     *ir.Func
	regs   []Value
	params []Value
	args   []Value
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
	if m.mon != nil && tid >= 0 {
		t.sender = m.mon.Sender(tid)
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
		t.fr.params[x.Idx] ^= 1 << bit
		return true
	}
	return false
}

// val reads an operand.
func (t *Thread) val(v ir.Value) Value {
	switch x := v.(type) {
	case *ir.Instr:
		return t.fr.regs[x.ID]
	case *ir.Const:
		return constBits(x)
	case *ir.Param:
		return t.fr.params[x.Idx]
	}
	return 0
}

func (t *Thread) trap(kind TrapKind, format string, args ...any) *Trap {
	return &Trap{Thread: t.tid, Kind: kind, Msg: fmt.Sprintf(format, args...)}
}

// call executes fn with the given arguments and returns its result. The
// activation reuses the thread's frame at the new depth; its registers
// start zeroed, as in a fresh frame.
func (t *Thread) call(fn *ir.Func, args []Value) (Value, *Trap) {
	if t.depth >= maxCallDepth {
		return 0, t.trap(TrapStackOverflow, "call depth %d", t.depth)
	}
	if t.depth == len(t.frames) {
		t.frames = append(t.frames, &frame{})
	}
	fr := t.frames[t.depth]
	n := fn.NumValues()
	if cap(fr.regs) < n {
		fr.regs = make([]Value, n)
	} else {
		fr.regs = fr.regs[:n]
		clear(fr.regs)
	}
	fr.fn, fr.params = fn, args
	caller := t.fr
	t.fr = fr
	t.depth++
	ret, trap := t.exec(fr)
	t.fr = caller
	t.depth--
	return ret, trap
}

// exec runs the active frame fr from its function's entry block.
func (t *Thread) exec(fr *frame) (Value, *Trap) {
	blk := fr.fn.Entry()
	var prev *ir.Block
	for {
		i := 0
		// Evaluate phis as a parallel copy from the incoming edge.
		if len(blk.Instrs) > 0 && blk.Instrs[0].Op == ir.OpPhi {
			predIdx := -1
			for pi, p := range blk.Preds {
				if p == prev {
					predIdx = pi
					break
				}
			}
			if predIdx < 0 {
				return 0, t.trap(TrapInternal, "phi: unknown predecessor in %s", blk.Name())
			}
			phis := t.phiBuf[:0]
			for _, in := range blk.Instrs {
				if in.Op != ir.OpPhi {
					break
				}
				phis = append(phis, t.val(in.Args[predIdx]))
			}
			t.phiBuf = phis
			n := len(phis)
			for j, v := range phis {
				fr.regs[blk.Instrs[j].ID] = v
				t.sim += t.m.cost.Default
			}
			i = n
			t.steps += uint64(n)
		}
		for ; i < len(blk.Instrs); i++ {
			in := blk.Instrs[i]
			t.steps++
			if t.steps > t.stepLimit {
				return 0, t.trap(TrapStepLimit, "exceeded %d steps", t.stepLimit)
			}
			if t.steps&1023 == 0 && t.m.isAborted() {
				return 0, t.trap(TrapAborted, "machine aborted")
			}
			switch in.Op {
			case ir.OpBr:
				nxt, trap := t.execBranch(in)
				if trap != nil {
					return 0, trap
				}
				prev, blk = blk, nxt
			case ir.OpJmp:
				t.sim += t.m.cost.Default
				prev, blk = blk, in.Then
			case ir.OpRet:
				t.sim += t.m.cost.Default
				if len(in.Args) == 1 {
					return t.val(in.Args[0]), nil
				}
				return 0, nil
			default:
				if trap := t.execInstr(in); trap != nil {
					return 0, trap
				}
				continue
			}
			break // took a terminator
		}
	}
}

// execBranch runs the fault hook, sends the monitor event for checked
// branches, and resolves the target.
func (t *Thread) execBranch(in *ir.Instr) (*ir.Block, *Trap) {
	t.branchSeq++
	t.sim += t.m.cost.Default
	flip := false
	if t.m.opts.Fault != nil && t.tid >= 0 {
		flip = t.m.opts.Fault.BeforeBranch(t, in)
	}
	taken := AsBool(t.val(in.Args[0]))
	if flip {
		taken = !taken
	}
	if t.sender != nil {
		if plan := t.m.checkedPlan(in.BranchID); plan != nil {
			// Single-operand signatures are sent raw so the monitor can
			// evaluate thread-ID relations exactly; multi-operand
			// signatures are hashed.
			var sig uint64
			if len(plan.SigArgs) == 1 {
				sig = t.val(plan.SigArgs[0])
			} else {
				sig = 0x9e3779b97f4a7c15
				for _, sv := range plan.SigArgs {
					sig = hashCombine(sig, t.val(sv))
				}
			}
			t.sender.Send(monitor.Event{
				Kind:     monitor.EvBranch,
				Taken:    taken,
				Thread:   int32(t.tid),
				BranchID: int32(in.BranchID),
				Key1:     hashCombine(t.pathHash, uint64(in.BranchID)),
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
			t.tid, in.BranchID, t.branchSeq, taken)
		t.m.traceMu.Unlock()
	}
	if taken {
		return in.Then, nil
	}
	return in.Else, nil
}

// execInstr executes one non-terminator instruction.
func (t *Thread) execInstr(in *ir.Instr) *Trap {
	c := t.m.cost
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
		t.sim += c.Default
		return t.execArith(in)
	case ir.OpNeg:
		t.sim += c.Default
		if in.Typ == ir.Float {
			t.fr.regs[in.ID] = FloatVal(-AsFloat(t.val(in.Args[0])))
		} else {
			t.fr.regs[in.ID] = IntVal(-AsInt(t.val(in.Args[0])))
		}
	case ir.OpNot:
		t.sim += c.Default
		t.fr.regs[in.ID] = BoolVal(!AsBool(t.val(in.Args[0])))
	case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		t.sim += c.Default
		return t.execCompare(in)
	case ir.OpI2F:
		t.sim += c.Default
		t.fr.regs[in.ID] = FloatVal(float64(AsInt(t.val(in.Args[0]))))
	case ir.OpF2I:
		t.sim += c.Default
		f := AsFloat(t.val(in.Args[0]))
		if math.IsNaN(f) {
			f = 0
		}
		f = math.Max(math.Min(f, math.MaxInt64), math.MinInt64)
		t.fr.regs[in.ID] = IntVal(int64(f))
	case ir.OpLoad:
		t.sim += t.memCost
		addr, trap := t.address(in, in.Args)
		if trap != nil {
			return trap
		}
		// Word-atomic: SPMD threads share globals without locks, and a
		// faulty thread can race another on the same word.
		t.fr.regs[in.ID] = atomic.LoadUint64(&t.m.mem[addr])
	case ir.OpStore:
		t.sim += t.memCost
		var idxArgs []ir.Value
		val := in.Args[len(in.Args)-1]
		if in.Global.IsArray {
			idxArgs = in.Args[:1]
		}
		addr, trap := t.address(in, idxArgs)
		if trap != nil {
			return trap
		}
		atomic.StoreUint64(&t.m.mem[addr], t.val(val))
	case ir.OpPhi:
		// Handled at block entry.
		return t.trap(TrapInternal, "phi executed mid-block")
	case ir.OpCall:
		t.sim += c.Call
		// The callee's params live in this frame's argument buffer, which
		// no other call can reuse until the callee returns.
		args := t.fr.args[:0]
		for _, a := range in.Args {
			args = append(args, t.val(a))
		}
		t.fr.args = args
		callee := t.m.mod.Func(in.Callee)
		if callee == nil {
			return t.trap(TrapInternal, "unknown function %s", in.Callee)
		}
		savedPath := t.pathHash
		t.pathHash = hashCombine(t.pathHash, uint64(in.CallSiteID))
		ret, trap := t.call(callee, args)
		t.pathHash = savedPath
		if trap != nil {
			return trap
		}
		if in.Typ != ir.Void {
			t.fr.regs[in.ID] = ret
		}
	case ir.OpBuiltin:
		return t.execBuiltin(in)
	case ir.OpLock:
		t.sim += c.Default
		return t.m.acquire(t, AsInt(t.val(in.Args[0])))
	case ir.OpUnlock:
		t.sim += c.Default
		return t.m.release(t, AsInt(t.val(in.Args[0])))
	case ir.OpBarrier:
		if t.tid < 0 {
			return t.trap(TrapInternal, "barrier in setup()")
		}
		if t.sender != nil {
			// Control events flush the Sender's buffer first, so the batch
			// never crosses the barrier.
			t.sender.Send(monitor.Event{Kind: monitor.EvFlush, Thread: int32(t.tid)})
		}
		return t.m.barrier.wait(t)
	case ir.OpOutput:
		t.sim += c.Output
		t.output = append(t.output, t.val(in.Args[0]))
	case ir.OpLoopPush:
		t.sim += c.Default
		t.loopPush()
	case ir.OpLoopInc:
		t.sim += c.Default
		t.loopInc()
	case ir.OpLoopPop:
		t.sim += c.Default
		t.loopPop()
	default:
		return t.trap(TrapInternal, "unhandled op %s", in.Op)
	}
	return nil
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

func (t *Thread) execArith(in *ir.Instr) *Trap {
	a, b := t.val(in.Args[0]), t.val(in.Args[1])
	if in.Typ == ir.Float {
		x, y := AsFloat(a), AsFloat(b)
		var r float64
		switch in.Op {
		case ir.OpAdd:
			r = x + y
		case ir.OpSub:
			r = x - y
		case ir.OpMul:
			r = x * y
		case ir.OpDiv:
			r = x / y // IEEE semantics: ±Inf/NaN, no trap
		}
		t.fr.regs[in.ID] = FloatVal(r)
		return nil
	}
	x, y := AsInt(a), AsInt(b)
	var r int64
	switch in.Op {
	case ir.OpAdd:
		r = x + y
	case ir.OpSub:
		r = x - y
	case ir.OpMul:
		r = x * y
	case ir.OpDiv:
		if y == 0 {
			return t.trap(TrapDivZero, "integer division by zero")
		}
		r = x / y
	case ir.OpRem:
		if y == 0 {
			return t.trap(TrapDivZero, "integer remainder by zero")
		}
		r = x % y
	}
	t.fr.regs[in.ID] = IntVal(r)
	return nil
}

func (t *Thread) execCompare(in *ir.Instr) *Trap {
	a, b := t.val(in.Args[0]), t.val(in.Args[1])
	var res bool
	if in.Args[0].Type() == ir.Float {
		x, y := AsFloat(a), AsFloat(b)
		switch in.Op {
		case ir.OpEq:
			res = x == y
		case ir.OpNe:
			res = x != y
		case ir.OpLt:
			res = x < y
		case ir.OpLe:
			res = x <= y
		case ir.OpGt:
			res = x > y
		case ir.OpGe:
			res = x >= y
		}
	} else {
		x, y := AsInt(a), AsInt(b)
		switch in.Op {
		case ir.OpEq:
			res = x == y
		case ir.OpNe:
			res = x != y
		case ir.OpLt:
			res = x < y
		case ir.OpLe:
			res = x <= y
		case ir.OpGt:
			res = x > y
		case ir.OpGe:
			res = x >= y
		}
	}
	t.fr.regs[in.ID] = BoolVal(res)
	return nil
}

func (t *Thread) execBuiltin(in *ir.Instr) *Trap {
	c := t.m.cost
	switch in.Builtin {
	case "tid":
		t.sim += c.Default
		t.fr.regs[in.ID] = IntVal(int64(t.tid))
	case "nthreads":
		t.sim += c.Default
		t.fr.regs[in.ID] = IntVal(int64(t.m.opts.Threads))
	case "rnd":
		t.sim += c.Default
		t.rng = t.rng*6364136223846793005 + 1442695040888963407
		t.fr.regs[in.ID] = IntVal(int64(t.rng >> 33))
	case "abs":
		t.sim += c.Default
		v := AsInt(t.val(in.Args[0]))
		if v < 0 {
			v = -v
		}
		t.fr.regs[in.ID] = IntVal(v)
	case "min":
		t.sim += c.Default
		a, b := AsInt(t.val(in.Args[0])), AsInt(t.val(in.Args[1]))
		t.fr.regs[in.ID] = IntVal(min(a, b))
	case "max":
		t.sim += c.Default
		a, b := AsInt(t.val(in.Args[0])), AsInt(t.val(in.Args[1]))
		t.fr.regs[in.ID] = IntVal(max(a, b))
	case "fabs":
		t.sim += c.MathFn
		t.fr.regs[in.ID] = FloatVal(math.Abs(AsFloat(t.val(in.Args[0]))))
	case "sqrt":
		t.sim += c.MathFn
		t.fr.regs[in.ID] = FloatVal(math.Sqrt(AsFloat(t.val(in.Args[0]))))
	case "sin":
		t.sim += c.MathFn
		t.fr.regs[in.ID] = FloatVal(math.Sin(AsFloat(t.val(in.Args[0]))))
	case "cos":
		t.sim += c.MathFn
		t.fr.regs[in.ID] = FloatVal(math.Cos(AsFloat(t.val(in.Args[0]))))
	case "exp":
		t.sim += c.MathFn
		t.fr.regs[in.ID] = FloatVal(math.Exp(AsFloat(t.val(in.Args[0]))))
	default:
		return t.trap(TrapInternal, "unknown builtin %s", in.Builtin)
	}
	return nil
}

// address computes and bounds-checks the memory slot for a load/store.
func (t *Thread) address(in *ir.Instr, idxArgs []ir.Value) (int, *Trap) {
	base := t.m.base[in.Global.Index]
	if !in.Global.IsArray {
		return base, nil
	}
	idx := AsInt(t.val(idxArgs[0]))
	if idx < 0 || idx >= in.Global.ArrayLen {
		return 0, t.trap(TrapOOB, "%s[%d] out of bounds (len %d)",
			in.Global.GName, idx, in.Global.ArrayLen)
	}
	return base + int(idx), nil
}
