// Package opt implements optional SSA optimization passes: constant
// folding with algebraic simplification, local common-subexpression
// elimination, and dead-code elimination. BLOCKWATCH's analysis operates
// on either optimized or unoptimized IR; optimizing first mirrors the
// paper's setting (its LLVM pass runs on optimized bitcode) and reduces
// interpreter work. Passes never remove or renumber branch instructions,
// so static branch IDs — and therefore check plans — remain stable.
package opt

import (
	"math"

	"blockwatch/internal/ir"
)

// Stats counts what the optimizer did.
type Stats struct {
	Folded     int // instructions replaced by constants
	Simplified int // algebraic identities applied
	CSE        int // common subexpressions reused
	Dead       int // dead instructions removed
	Passes     int // pipeline iterations until fixpoint
}

// Optimize runs the pass pipeline to a fixpoint and returns its stats.
// It drops the module's decoded form, so the next run executes the
// optimized IR.
func Optimize(m *ir.Module) Stats {
	m.DropDecoded()
	var st Stats
	for {
		st.Passes++
		n := foldConstants(m, &st)
		n += cseBlocks(m, &st)
		n += removeDead(m, &st)
		if n == 0 || st.Passes > 20 {
			return st
		}
	}
}

// foldConstants rewrites operands that are constant-valued instructions
// and applies algebraic identities. It returns the number of rewrites.
func foldConstants(m *ir.Module, st *Stats) int {
	changed := 0
	for _, f := range m.Funcs {
		// repl maps a folded/simplified instruction to its replacement
		// (a constant, or an existing dominating value for identities).
		repl := make(map[*ir.Instr]ir.Value)
		resolve := func(v ir.Value) ir.Value {
			for {
				in, ok := v.(*ir.Instr)
				if !ok {
					return v
				}
				nv, ok := repl[in]
				if !ok {
					return v
				}
				v = nv
			}
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				// First rewrite operands through already-known values.
				for i, a := range in.Args {
					if r := resolve(a); r != a {
						in.Args[i] = r
						changed++
					}
				}
				if _, dead := repl[in]; dead {
					continue
				}
				if c := evalConst(in); c != nil {
					repl[in] = c
					st.Folded++
					changed++
					continue
				}
				if v := simplify(in); v != nil {
					repl[in] = v
					st.Simplified++
					changed++
				}
			}
		}
		if len(repl) > 0 {
			// Second sweep: rewrite any remaining uses (phi back-edges
			// reference values defined later in layout order).
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for i, a := range in.Args {
						if r := resolve(a); r != a {
							in.Args[i] = r
							changed++
						}
					}
				}
			}
		}
	}
	return changed
}

// evalConst returns the constant value of in when all operands are
// constants and the op is pure, else nil. Division by a zero constant is
// left to trap at runtime.
func evalConst(in *ir.Instr) *ir.Const {
	if !pureInstr(in) || in.Op == ir.OpPhi {
		return nil
	}
	if in.Op == ir.OpBuiltin {
		return evalBuiltin(in)
	}
	cs := make([]*ir.Const, len(in.Args))
	for i, a := range in.Args {
		c, ok := a.(*ir.Const)
		if !ok {
			return nil
		}
		cs[i] = c
	}
	switch in.Op {
	case ir.OpNeg:
		if in.Typ == ir.Float {
			return ir.ConstFloat(-cs[0].F)
		}
		return ir.ConstInt(-cs[0].I)
	case ir.OpNot:
		return ir.ConstBool(!cs[0].B)
	case ir.OpI2F:
		return ir.ConstFloat(float64(cs[0].I))
	case ir.OpF2I:
		f := cs[0].F
		if math.IsNaN(f) {
			f = 0
		}
		f = math.Max(math.Min(f, math.MaxInt64), math.MinInt64)
		return ir.ConstInt(int64(f))
	}
	if len(cs) != 2 {
		return nil
	}
	if in.Op.IsCompare() {
		return evalCompare(in.Op, cs[0], cs[1])
	}
	if in.Typ == ir.Float {
		x, y := cs[0].F, cs[1].F
		switch in.Op {
		case ir.OpAdd:
			return ir.ConstFloat(x + y)
		case ir.OpSub:
			return ir.ConstFloat(x - y)
		case ir.OpMul:
			return ir.ConstFloat(x * y)
		case ir.OpDiv:
			return ir.ConstFloat(x / y)
		}
		return nil
	}
	x, y := cs[0].I, cs[1].I
	switch in.Op {
	case ir.OpAdd:
		return ir.ConstInt(x + y)
	case ir.OpSub:
		return ir.ConstInt(x - y)
	case ir.OpMul:
		return ir.ConstInt(x * y)
	case ir.OpDiv:
		if y == 0 {
			return nil // preserve the runtime trap
		}
		return ir.ConstInt(x / y)
	case ir.OpRem:
		if y == 0 {
			return nil
		}
		return ir.ConstInt(x % y)
	}
	return nil
}

// evalBuiltin folds pure integer builtins with constant arguments.
func evalBuiltin(in *ir.Instr) *ir.Const {
	cs := make([]*ir.Const, len(in.Args))
	for i, a := range in.Args {
		c, ok := a.(*ir.Const)
		if !ok || c.Typ != ir.Int {
			return nil
		}
		cs[i] = c
	}
	switch in.Builtin {
	case "abs":
		v := cs[0].I
		if v < 0 {
			v = -v
		}
		return ir.ConstInt(v)
	case "min":
		return ir.ConstInt(min(cs[0].I, cs[1].I))
	case "max":
		return ir.ConstInt(max(cs[0].I, cs[1].I))
	}
	return nil
}

func evalCompare(op ir.Op, a, b *ir.Const) *ir.Const {
	if a.Typ == ir.Float {
		x, y := a.F, b.F
		switch op {
		case ir.OpEq:
			return ir.ConstBool(x == y)
		case ir.OpNe:
			return ir.ConstBool(x != y)
		case ir.OpLt:
			return ir.ConstBool(x < y)
		case ir.OpLe:
			return ir.ConstBool(x <= y)
		case ir.OpGt:
			return ir.ConstBool(x > y)
		case ir.OpGe:
			return ir.ConstBool(x >= y)
		}
		return nil
	}
	if a.Typ == ir.Bool {
		switch op {
		case ir.OpEq:
			return ir.ConstBool(a.B == b.B)
		case ir.OpNe:
			return ir.ConstBool(a.B != b.B)
		}
		return nil
	}
	x, y := a.I, b.I
	switch op {
	case ir.OpEq:
		return ir.ConstBool(x == y)
	case ir.OpNe:
		return ir.ConstBool(x != y)
	case ir.OpLt:
		return ir.ConstBool(x < y)
	case ir.OpLe:
		return ir.ConstBool(x <= y)
	case ir.OpGt:
		return ir.ConstBool(x > y)
	case ir.OpGe:
		return ir.ConstBool(x >= y)
	}
	return nil
}

// simplify applies algebraic identities that yield an existing value (not
// a new instruction): x+0, x-0, x*1, x/1, x*0.
func simplify(in *ir.Instr) ir.Value {
	if in.Typ != ir.Int {
		// Float identities are unsafe under IEEE semantics (e.g. x+0
		// with x = -0), so only integers are simplified.
		return nil
	}
	isConst := func(v ir.Value, k int64) bool {
		c, ok := v.(*ir.Const)
		return ok && c.Typ == ir.Int && c.I == k
	}
	switch in.Op {
	case ir.OpAdd:
		if isConst(in.Args[0], 0) {
			return in.Args[1]
		}
		if isConst(in.Args[1], 0) {
			return in.Args[0]
		}
	case ir.OpSub:
		if isConst(in.Args[1], 0) {
			return in.Args[0]
		}
	case ir.OpMul:
		if isConst(in.Args[0], 1) {
			return in.Args[1]
		}
		if isConst(in.Args[1], 1) {
			return in.Args[0]
		}
		if isConst(in.Args[0], 0) || isConst(in.Args[1], 0) {
			return ir.ConstInt(0)
		}
	case ir.OpDiv:
		if isConst(in.Args[1], 1) {
			return in.Args[0]
		}
	}
	return nil
}

// cseBlocks eliminates duplicate pure expressions within each basic block
// by rewriting later uses to the first occurrence.
func cseBlocks(m *ir.Module, st *Stats) int {
	changed := 0
	for _, f := range m.Funcs {
		repl := make(map[*ir.Instr]*ir.Instr)
		for _, b := range f.Blocks {
			seen := make(map[exprKey]*ir.Instr)
			for _, in := range b.Instrs {
				for i, a := range in.Args {
					if ai, ok := a.(*ir.Instr); ok {
						if r, ok := repl[ai]; ok {
							in.Args[i] = r
							changed++
						}
					}
				}
				if !pureInstr(in) || in.Op == ir.OpPhi || in.Typ == ir.Void {
					continue
				}
				k, ok := keyOf(in)
				if !ok {
					continue
				}
				if prev, dup := seen[k]; dup {
					repl[in] = prev
					st.CSE++
					changed++
				} else {
					seen[k] = in
				}
			}
		}
		if len(repl) > 0 {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for i, a := range in.Args {
						if ai, ok := a.(*ir.Instr); ok {
							if r, ok := repl[ai]; ok {
								in.Args[i] = r
								changed++
							}
						}
					}
				}
			}
		}
	}
	return changed
}

// exprKey identifies a pure expression for CSE: op (plus builtin name)
// and operand identities (constants by value).
type exprKey struct {
	op      ir.Op
	builtin string
	a0, a1  any
}

func keyOf(in *ir.Instr) (exprKey, bool) {
	k := exprKey{op: in.Op, builtin: in.Builtin}
	key := func(v ir.Value) (any, bool) {
		switch x := v.(type) {
		case *ir.Const:
			return *x, true
		case *ir.Instr, *ir.Param:
			return v, true
		}
		return nil, false
	}
	if len(in.Args) > 2 {
		return k, false
	}
	if len(in.Args) >= 1 {
		a, ok := key(in.Args[0])
		if !ok {
			return k, false
		}
		k.a0 = a
	}
	if len(in.Args) == 2 {
		a, ok := key(in.Args[1])
		if !ok {
			return k, false
		}
		k.a1 = a
	}
	return k, true
}

// removeDead deletes pure instructions with no uses. Branches, stores,
// calls, sync ops, outputs, and loop bookkeeping are always live.
func removeDead(m *ir.Module, st *Stats) int {
	removed := 0
	for _, f := range m.Funcs {
		for {
			used := make(map[*ir.Instr]bool)
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					for _, a := range in.Args {
						if ai, ok := a.(*ir.Instr); ok {
							used[ai] = true
						}
					}
				}
			}
			n := 0
			for _, b := range f.Blocks {
				kept := b.Instrs[:0]
				for _, in := range b.Instrs {
					if deletable(in) && !used[in] {
						n++
						continue
					}
					kept = append(kept, in)
				}
				b.Instrs = kept
			}
			if n == 0 {
				break
			}
			removed += n
			st.Dead += n
		}
	}
	return removed
}

// pureInstr reports whether the instruction has no side effects and
// depends only on its operands (loads are excluded: another thread may
// store between two loads of the same location; rnd() advances a stream;
// tid()/nthreads()/math builtins are pure).
func pureInstr(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
		ir.OpNeg, ir.OpNot, ir.OpI2F, ir.OpF2I,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe,
		ir.OpPhi:
		return true
	case ir.OpBuiltin:
		return in.Builtin != "rnd"
	}
	return false
}

// deletable reports whether an unused instruction may be removed. Pure
// instructions and unused loads may go (an unused load's value cannot be
// observed); integer div/rem stay unless the divisor is a nonzero
// constant, because they can trap.
func deletable(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpDiv, ir.OpRem:
		if in.Typ == ir.Float {
			return true
		}
		c, ok := in.Args[1].(*ir.Const)
		return ok && c.I != 0
	case ir.OpLoad:
		return true
	default:
		return pureInstr(in)
	}
}
