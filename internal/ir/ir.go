// Package ir defines the SSA intermediate representation that the
// BLOCKWATCH static analysis operates on, mirroring the role LLVM IR plays
// in the paper. A Module holds shared Globals and Funcs; each Func is a CFG
// of Blocks whose Instrs are in SSA form (every Instr defines at most one
// value, join points use Phi instructions).
//
// Loop structure is explicit: lowering inserts LoopPush/LoopInc/LoopPop
// instructions around every source loop so the runtime can maintain the
// outer-loop iteration vector the paper uses as the runtime part of a
// branch's hash-table key (Section III-B).
package ir

import (
	"fmt"
	"sync/atomic"
)

// Type is an IR value type.
type Type int

// IR value types.
const (
	Int Type = iota + 1
	Float
	Bool
	Void
)

// String returns the IR spelling of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case Bool:
		return "bool"
	case Void:
		return "void"
	}
	return "invalid"
}

// Op is an instruction opcode.
type Op int

// Instruction opcodes.
const (
	// Arithmetic and logic (value-producing).
	OpAdd Op = iota + 1
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpI2F // int → float conversion
	OpF2I // float → int conversion (truncating)

	// Memory.
	OpLoad  // load Global [index]
	OpStore // store Global [index], value

	// SSA join.
	OpPhi

	// Calls.
	OpCall    // call user function (Callee, CallSiteID)
	OpBuiltin // builtin intrinsic (Builtin name)

	// Synchronization and I/O side effects.
	OpLock
	OpUnlock
	OpBarrier
	OpOutput

	// Loop bookkeeping (runtime iteration-vector maintenance).
	OpLoopPush // entering a loop: push iteration counter 0
	OpLoopInc  // taking a back edge: increment top counter
	OpLoopPop  // leaving a loop: pop counter

	// Terminators.
	OpBr  // conditional branch: Args[0] cond, Then/Else blocks
	OpJmp // unconditional jump: Then block
	OpRet // return: optional Args[0]
)

var opNames = map[Op]string{
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpNeg: "neg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpI2F: "i2f", OpF2I: "f2i",
	OpLoad: "load", OpStore: "store", OpPhi: "phi",
	OpCall: "call", OpBuiltin: "builtin",
	OpLock: "lock", OpUnlock: "unlock", OpBarrier: "barrier", OpOutput: "output",
	OpLoopPush: "loop.push", OpLoopInc: "loop.inc", OpLoopPop: "loop.pop",
	OpBr: "br", OpJmp: "jmp", OpRet: "ret",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsCompare reports whether the op is a comparison producing a bool.
func (o Op) IsCompare() bool { return o >= OpEq && o <= OpGe }

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpJmp || o == OpRet }

// Value is anything an instruction operand can reference: constants,
// globals (as addresses), function parameters, and instruction results.
type Value interface {
	Type() Type
	// Name returns a short printable name (%v3, @g, #7, arg a).
	Name() string
}

// Const is a compile-time constant.
type Const struct {
	Typ Type
	I   int64
	F   float64
	B   bool
}

// ConstInt returns an int constant value.
func ConstInt(v int64) *Const { return &Const{Typ: Int, I: v} }

// ConstFloat returns a float constant value.
func ConstFloat(v float64) *Const { return &Const{Typ: Float, F: v} }

// ConstBool returns a bool constant value.
func ConstBool(v bool) *Const { return &Const{Typ: Bool, B: v} }

// Type returns the constant's type.
func (c *Const) Type() Type { return c.Typ }

// Name renders the constant literally.
func (c *Const) Name() string {
	switch c.Typ {
	case Int:
		return fmt.Sprintf("#%d", c.I)
	case Float:
		return fmt.Sprintf("#%g", c.F)
	case Bool:
		return fmt.Sprintf("#%t", c.B)
	}
	return "#void"
}

// Global is a shared global scalar or array. Globals are memory, not SSA
// values; they are accessed through Load/Store. As an operand (of
// Load/Store) a Global contributes its element type.
type Global struct {
	GName    string
	Typ      Type // element type
	IsArray  bool
	ArrayLen int64
	Index    int // slot index in the module's global memory layout

	// WrittenInParallel is set by analysis setup: true if any store to this
	// global is reachable from the slave entry function.
	WrittenInParallel bool
}

// Type returns the global's element type.
func (g *Global) Type() Type { return g.Typ }

// Name renders the global as @name.
func (g *Global) Name() string { return "@" + g.GName }

// Param is a function parameter (an SSA value defined at function entry).
type Param struct {
	PName string
	Typ   Type
	Idx   int
	Fn    *Func
}

// Type returns the parameter's type.
func (p *Param) Type() Type { return p.Typ }

// Name renders the parameter as $name.
func (p *Param) Name() string { return "$" + p.PName }

// Instr is a single SSA instruction. Value-producing instructions are used
// directly as operands of later instructions.
type Instr struct {
	ID   int // unique within the function
	Op   Op
	Typ  Type // result type; Void for non-value instructions
	Args []Value
	Blk  *Block

	// Op-specific fields.
	Global     *Global  // Load/Store target
	Callee     string   // Call target function name
	CallSiteID int      // unique module-wide call-site identifier (Call)
	Builtin    string   // Builtin intrinsic name
	PhiPreds   []*Block // Phi incoming blocks, parallel to Args
	Then, Else *Block   // Br successors; Then is the Jmp target
	LoopID     int      // LoopPush/Inc/Pop: which loop

	// Branch metadata filled by lowering.
	BranchID   int  // static branch identifier (Br only; 0 = none)
	IsLoopBr   bool // Br at a loop header
	InCritical bool // instruction lexically inside a lock/unlock region
	LoopDepth  int  // number of enclosing loops at this instruction
	SrcLine    int  // source line for diagnostics
}

// Type returns the instruction's result type.
func (in *Instr) Type() Type { return in.Typ }

// Name renders the instruction result as %vN.
func (in *Instr) Name() string { return fmt.Sprintf("%%v%d", in.ID) }

// Block is a basic block.
type Block struct {
	ID     int
	BName  string
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block
	Fn     *Func

	// IsLoopHead marks loop header blocks (set by lowering). Phi nodes in
	// loop headers are induction joins rather than if/else merges, which
	// the category analysis treats differently (see package core).
	IsLoopHead bool
}

// Name returns the block label.
func (b *Block) Name() string { return fmt.Sprintf("%s.%d", b.BName, b.ID) }

// Terminator returns the block's final instruction, or nil if the block is
// not yet terminated.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.Op.IsTerminator() {
		return nil
	}
	return last
}

// Func is an IR function.
type Func struct {
	FName  string
	Params []*Param
	Ret    Type
	Blocks []*Block
	Mod    *Module

	nextInstrID int
	nextBlockID int
}

// Entry returns the function's entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a fresh empty block to the function.
func (f *Func) NewBlock(name string) *Block {
	b := &Block{ID: f.nextBlockID, BName: name, Fn: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	return b
}

// NewInstr creates an instruction (not yet placed in a block).
func (f *Func) NewInstr(op Op, typ Type, args ...Value) *Instr {
	in := &Instr{ID: f.nextInstrID, Op: op, Typ: typ, Args: args}
	f.nextInstrID++
	return in
}

// Append places in at the end of block b.
func (b *Block) Append(in *Instr) *Instr {
	in.Blk = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertBefore places in immediately before pos inside block b.
func (b *Block) InsertBefore(in, pos *Instr) {
	in.Blk = b
	for i, x := range b.Instrs {
		if x == pos {
			b.Instrs = append(b.Instrs[:i], append([]*Instr{in}, b.Instrs[i:]...)...)
			return
		}
	}
	b.Instrs = append(b.Instrs, in)
}

// NumValues returns an upper bound on instruction IDs in the function
// (register-file size for the interpreter).
func (f *Func) NumValues() int { return f.nextInstrID }

// NumInstrs returns the total instruction count of the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a compilation unit: shared globals plus functions.
type Module struct {
	MName   string
	Globals []*Global
	Funcs   []*Func

	// NumBranches is the number of static branch IDs assigned (conditional
	// branches from source if/while/for conditions).
	NumBranches int
	// NumLoops is the number of loop IDs assigned.
	NumLoops int
	// NumCallSites is the number of call-site IDs assigned.
	NumCallSites int

	// decoded caches the module's executable form; see Decoded.
	decoded atomic.Pointer[any]
}

// Decoded returns the executable form cached by StoreDecoded, or nil.
// Package ir only holds it: the interpreter builds it on a module's first
// run and reads it on every run.
func (m *Module) Decoded() any {
	if p := m.decoded.Load(); p != nil {
		return *p
	}
	return nil
}

// StoreDecoded caches d as the module's executable form unless one is
// cached already, and returns the cached form: of concurrent first runs
// that each decoded the module, all execute the first one stored.
func (m *Module) StoreDecoded(d any) any {
	if m.decoded.CompareAndSwap(nil, &d) {
		return d
	}
	return *m.decoded.Load()
}

// DropDecoded discards the cached executable form. A pass that changes a
// module after lowering calls it, so the next run decodes the new IR.
func (m *Module) DropDecoded() { m.decoded.Store(nil) }

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func {
	for _, f := range m.Funcs {
		if f.FName == name {
			return f
		}
	}
	return nil
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global {
	for _, g := range m.Globals {
		if g.GName == name {
			return g
		}
	}
	return nil
}

// Branches returns every conditional branch instruction in the module that
// carries a static branch ID, in deterministic (function, block, instr)
// order.
func (m *Module) Branches() []*Instr {
	var out []*Instr
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == OpBr && in.BranchID > 0 {
					out = append(out, in)
				}
			}
		}
	}
	return out
}
