package interp

import (
	"fmt"

	"blockwatch/internal/ir"
)

// The interpreter does not walk the IR. On a module's first Run each
// function is decoded into one flat array of fixed-size instructions over
// register slots, and every later run of the module executes that array.
//
// A frame's register file is laid out as [SSA values | params | constants]:
// an instruction's result lives at its IR ID, parameter i at params+i,
// and each distinct constant of the function in a slot after them. Every
// operand is therefore a slot index, and entering a function copies one
// template (zeros, then the constants) into the frame.

// opcode is a decoded operation: the IR op specialised by operand type,
// builtin and addressing mode, so the dispatch is a single switch.
type opcode uint8

const (
	opAddI opcode = iota // dst = a + b
	opSubI
	opMulI
	opDivI // traps on b == 0
	opRemI // traps on b == 0
	opAddF
	opSubF
	opMulF
	opDivF
	opRemF // a float remainder is 0
	opNegI // dst = -a
	opNegF
	opNot
	opEqI // dst = a <op> b
	opNeI
	opLtI
	opLeI
	opGtI
	opGeI
	opEqF
	opNeF
	opLtF
	opLeF
	opGtF
	opGeF
	opI2F
	opF2I
	opLoad     // dst = global aux
	opLoadIdx  // dst = global aux [a]
	opStore    // global aux = a
	opStoreIdx // global aux [a] = b
	opCall     // dst = calls[aux](...); dst < 0 for a void call
	opTid
	opNthreads
	opRnd
	opAbs
	opMin
	opMax
	opFabs
	opSqrt
	opSin
	opCos
	opExp
	opLock   // lock a
	opUnlock // unlock a
	opBarrier
	opOutput // output a
	opLoopPush
	opLoopInc
	opLoopPop
	opBr      // if a goto edges[aux] else edges[aux+1]; dst holds the BranchID
	opJmp     // goto edges[aux]
	opRet     // return a
	opRetVoid // return 0
	opBad     // trap as internal with bad[aux]
)

// instr is one decoded instruction: 20 bytes.
type instr struct {
	op   opcode
	dst  int32
	a, b int32
	aux  int32
}

// edge is a decoded control-flow edge: where it lands and the phi moves
// of the target block for it.
type edge struct {
	pc     int32 // first non-phi instruction of the target block
	lo, hi int32 // the parallel copy moves[lo:hi]
	// scratch marks a parallel copy in which a move reads a slot an
	// earlier move writes, so it must read every source first.
	scratch bool
	// bad marks an edge whose target has phis but does not list the
	// source block as a predecessor: taking it traps with fn.bad[pc].
	bad bool
}

// move is one phi's parallel-copy move on an edge.
type move struct{ dst, src int32 }

// callSite is a decoded call: the callee (nil when the module has no
// function of that name) and the caller's slots of its arguments.
type callSite struct {
	fn   *function
	args []int32
	site uint64 // CallSiteID, chained into the call-path hash
}

// function is a decoded ir.Func.
type function struct {
	code []instr
	// src is the IR instruction behind each pc, for the cold paths that
	// need the IR: the fault hook and the unknown-function trap.
	src    []*ir.Instr
	edges  []edge
	moves  []move
	calls  []callSite
	bad    []string // trap messages of opBad and of bad edges
	regs   []Value  // register-file template
	params int32    // slot of parameter 0
	entry  edge     // the edge into the entry block
}

// global is a global's place in memory.
type global struct {
	base int
	n    int64 // array length; 0 for a scalar
	name string
}

// program is a decoded module.
type program struct {
	setup, slave *function
	globals      []global // by ir.Global.Index
	memSize      int
	// branchFns holds the function of each conditional branch, by
	// BranchID (module-unique: lowering numbers the branches), so a run
	// can resolve a checked branch's signature operands to slots.
	branchFns []*function
}

// decoded returns mod's program, decoding it on the module's first run.
// Concurrent first runs may each decode it; all of them execute the one
// the module stored first.
func decoded(mod *ir.Module) *program {
	if p, ok := mod.Decoded().(*program); ok {
		return p
	}
	return mod.StoreDecoded(decode(mod)).(*program)
}

// decode builds the program of mod. It relies on the invariants ir.Verify
// checks, which lowering establishes for every module. Calls bind by name
// to the module's first function of that name, as Module.Func does.
func decode(mod *ir.Module) *program {
	p := &program{globals: make([]global, len(mod.Globals))}
	for _, g := range mod.Globals {
		p.globals[g.Index] = global{base: p.memSize, name: g.GName}
		if g.IsArray {
			p.globals[g.Index].n = g.ArrayLen
			p.memSize += int(g.ArrayLen)
		} else {
			p.memSize++
		}
	}
	fns := make(map[*ir.Func]*function, len(mod.Funcs))
	for _, f := range mod.Funcs {
		fns[f] = &function{}
	}
	for _, f := range mod.Funcs {
		d := decoder{p: p, mod: mod, fns: fns, fn: fns[f], f: f, consts: map[Value]int32{}}
		d.decodeFunc()
	}
	p.setup, p.slave = fns[mod.Func("setup")], fns[mod.Func("slave")]
	return p
}

// decoder decodes one function.
type decoder struct {
	p         *program
	mod       *ir.Module
	fns       map[*ir.Func]*function
	fn        *function
	f         *ir.Func
	consts    map[Value]int32 // constant value → its slot
	constBase int32           // slot of the first constant
	pcs       map[*ir.Block]int32
	ends      [][2]*ir.Block // each edge's source and target, by edge index
}

func (d *decoder) decodeFunc() {
	fn, f := d.fn, d.f
	fn.params = int32(f.NumValues())
	d.constBase = fn.params + int32(len(f.Params))
	d.pcs = make(map[*ir.Block]int32, len(f.Blocks))
	fn.code, fn.src = make([]instr, 0, f.NumInstrs()), make([]*ir.Instr, 0, f.NumInstrs())
	for _, b := range f.Blocks {
		// A block's phis run on the edges into it; its code starts after
		// them and ends with its terminator.
		d.pcs[b] = int32(len(fn.code))
		for _, in := range b.Instrs[leadingPhis(b):] {
			d.decodeInstr(b, in)
		}
	}
	d.resolve(&fn.entry, nil, f.Entry())
	for i, e := range d.ends {
		d.resolve(&fn.edges[i], e[0], e[1])
	}
	fn.regs = make([]Value, int(d.constBase)+len(d.consts))
	for v, slot := range d.consts {
		fn.regs[slot] = v
	}
}

// leadingPhis returns the number of phis that open block b.
func leadingPhis(b *ir.Block) int {
	n := 0
	for n < len(b.Instrs) && b.Instrs[n].Op == ir.OpPhi {
		n++
	}
	return n
}

// edge adds the edge from → to, resolved once every block is laid out,
// and returns its index in fn.edges.
func (d *decoder) edge(from, to *ir.Block) int32 {
	d.fn.edges = append(d.fn.edges, edge{})
	d.ends = append(d.ends, [2]*ir.Block{from, to})
	return int32(len(d.fn.edges) - 1)
}

// resolve fills in edge e from → to: its landing pc and the phi moves of
// to for it, taken from the incoming value at from's first position in
// to's predecessors.
func (d *decoder) resolve(e *edge, from, to *ir.Block) {
	n := leadingPhis(to)
	e.pc = d.pcs[to]
	if n == 0 {
		return
	}
	pred := -1
	for i, p := range to.Preds {
		if p == from {
			pred = i
			break
		}
	}
	if pred < 0 {
		e.bad, e.pc = true, int32(len(d.fn.bad))
		d.fn.bad = append(d.fn.bad, fmt.Sprintf("phi: unknown predecessor in %s", to.Name()))
		return
	}
	e.lo = int32(len(d.fn.moves))
	written := make(map[int32]bool, n)
	for _, phi := range to.Instrs[:n] {
		mv := move{dst: int32(phi.ID), src: d.slot(phi.Args[pred])}
		if written[mv.src] {
			e.scratch = true
		}
		written[mv.dst] = true
		d.fn.moves = append(d.fn.moves, mv)
	}
	e.hi = int32(len(d.fn.moves))
}

// slot returns v's register slot. Each distinct constant gets one slot.
func (d *decoder) slot(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		return int32(x.ID)
	case *ir.Param:
		return d.fn.params + int32(x.Idx)
	}
	var bits Value // any other operand reads as 0, as in Thread.val
	if c, ok := v.(*ir.Const); ok {
		bits = constBits(c)
	}
	s, ok := d.consts[bits]
	if !ok {
		s = d.constBase + int32(len(d.consts))
		d.consts[bits] = s
	}
	return s
}

func (d *decoder) emit(in *ir.Instr, x instr) {
	d.fn.code = append(d.fn.code, x)
	d.fn.src = append(d.fn.src, in)
}

func (d *decoder) emitBad(in *ir.Instr, msg string) {
	d.fn.bad = append(d.fn.bad, msg)
	d.emit(in, instr{op: opBad, aux: int32(len(d.fn.bad) - 1)})
}

var (
	arithOps = map[ir.Op][2]opcode{
		ir.OpAdd: {opAddI, opAddF}, ir.OpSub: {opSubI, opSubF}, ir.OpMul: {opMulI, opMulF},
		ir.OpDiv: {opDivI, opDivF}, ir.OpRem: {opRemI, opRemF},
		ir.OpEq: {opEqI, opEqF}, ir.OpNe: {opNeI, opNeF}, ir.OpLt: {opLtI, opLtF},
		ir.OpLe: {opLeI, opLeF}, ir.OpGt: {opGtI, opGtF}, ir.OpGe: {opGeI, opGeF},
		ir.OpNeg: {opNegI, opNegF},
	}
	unaryOps = map[ir.Op]opcode{
		ir.OpNot: opNot, ir.OpI2F: opI2F, ir.OpF2I: opF2I,
		ir.OpLock: opLock, ir.OpUnlock: opUnlock, ir.OpOutput: opOutput,
	}
	bareOps = map[ir.Op]opcode{
		ir.OpBarrier: opBarrier, ir.OpLoopPush: opLoopPush, ir.OpLoopInc: opLoopInc, ir.OpLoopPop: opLoopPop,
	}
	builtinOps = map[string]opcode{
		"tid": opTid, "nthreads": opNthreads, "rnd": opRnd, "abs": opAbs, "min": opMin, "max": opMax,
		"fabs": opFabs, "sqrt": opSqrt, "sin": opSin, "cos": opCos, "exp": opExp,
	}
)

// decodeInstr appends the decoded form of in, an instruction of block b.
func (d *decoder) decodeInstr(b *ir.Block, in *ir.Instr) {
	x := instr{dst: int32(in.ID)}
	if ops, ok := arithOps[in.Op]; ok {
		// Arithmetic and negation pick the float form by result type,
		// comparisons by the type of their first operand.
		float := in.Typ == ir.Float
		if in.Op.IsCompare() {
			float = in.Args[0].Type() == ir.Float
		}
		x.op = ops[0]
		if float {
			x.op = ops[1]
		}
		x.a = d.slot(in.Args[0])
		if len(in.Args) > 1 {
			x.b = d.slot(in.Args[1])
		}
		d.emit(in, x)
		return
	}
	if op, ok := unaryOps[in.Op]; ok {
		x.op, x.a = op, d.slot(in.Args[0])
		d.emit(in, x)
		return
	}
	if op, ok := bareOps[in.Op]; ok {
		x.op = op
		d.emit(in, x)
		return
	}
	switch in.Op {
	case ir.OpLoad, ir.OpStore:
		x.aux = int32(in.Global.Index)
		if in.Op == ir.OpLoad {
			x.op = opLoad
			if in.Global.IsArray {
				x.op, x.a = opLoadIdx, d.slot(in.Args[0])
			}
		} else {
			x.op, x.a = opStore, d.slot(in.Args[len(in.Args)-1])
			if in.Global.IsArray {
				x.op, x.a, x.b = opStoreIdx, d.slot(in.Args[0]), x.a
			}
		}
	case ir.OpCall:
		x.op, x.aux = opCall, int32(len(d.fn.calls))
		if in.Typ == ir.Void {
			x.dst = -1
		}
		cs := callSite{site: uint64(in.CallSiteID)}
		if callee := d.mod.Func(in.Callee); callee != nil {
			cs.fn = d.fns[callee]
			// Arguments beyond the callee's parameters are never read.
			for i := range min(len(in.Args), len(callee.Params)) {
				cs.args = append(cs.args, d.slot(in.Args[i]))
			}
		}
		d.fn.calls = append(d.fn.calls, cs)
	case ir.OpBuiltin:
		op, ok := builtinOps[in.Builtin]
		if !ok {
			d.emitBad(in, fmt.Sprintf("unknown builtin %s", in.Builtin))
			return
		}
		x.op = op
		if len(in.Args) > 0 {
			x.a = d.slot(in.Args[0])
		}
		if len(in.Args) > 1 {
			x.b = d.slot(in.Args[1])
		}
	case ir.OpBr:
		x.op, x.dst, x.a = opBr, int32(in.BranchID), d.slot(in.Args[0])
		if id := in.BranchID; id >= 0 {
			if id >= len(d.p.branchFns) {
				d.p.branchFns = append(d.p.branchFns, make([]*function, id+1-len(d.p.branchFns))...)
			}
			d.p.branchFns[id] = d.fn
		}
		x.aux = d.edge(b, in.Then)
		d.edge(b, in.Else)
	case ir.OpJmp:
		x.op, x.aux = opJmp, d.edge(b, in.Then)
	case ir.OpRet:
		x.op = opRetVoid
		if len(in.Args) == 1 {
			x.op, x.a = opRet, d.slot(in.Args[0])
		}
	case ir.OpPhi:
		d.emitBad(in, "phi executed mid-block")
		return
	default:
		d.emitBad(in, fmt.Sprintf("unhandled op %s", in.Op))
		return
	}
	d.emit(in, x)
}
