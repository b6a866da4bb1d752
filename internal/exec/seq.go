// Package exec provides the two execution engines of the reproduction: a
// sequential reference interpreter for checked Idn programs (the semantics
// the programmer debugged against, §1), and an SPMD interpreter that runs
// compiled per-process programs on the simulated multicomputer, charging the
// machine's cost model. Comparing the two on the same inputs is how the test
// suite establishes that process decomposition preserves program meaning.
package exec

import (
	"fmt"
	"math"

	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
)

// Value is a runtime scalar.
type Value = float64

// ArgVal is an argument to (or result of) a program: exactly one field set.
type ArgVal struct {
	Matrix *istruct.Matrix
	Vector *istruct.Vector
	IsScal bool
	Scalar Value
}

// Outcome is the result of a sequential run.
type Outcome struct {
	HasRet bool
	Ret    ArgVal
}

// The reference interpreter does not walk the AST. Each procedure is
// lowered once per run (seqInterp.lower): every *sem.Symbol it declares
// resolves to a frame slot, constants fold to their values, and every
// statement and expression becomes a closure over the frame. A call
// allocates one frame; executing a statement or evaluating an expression
// makes no symbol or name lookup. A slot is reset each time its let
// statement runs, so a let inside a loop body gets a fresh write-once
// variable per iteration, as a fresh scope would give it (sem forbids
// shadowing, so one slot per symbol is enough).

// cell is one frame slot: a scalar I-variable, a loop variable, or an array.
type cell struct {
	ivar   istruct.IVar
	loop   Value
	matrix *istruct.Matrix
	vector *istruct.Vector
}

// frame is one procedure activation.
type frame struct {
	cells  []cell
	ret    ArgVal
	hasRet bool
}

// Lowered code: a statement reports whether a return statement ran.
type (
	seqStmt func(fr *frame) bool
	seqExpr func(fr *frame) Value
)

// seqProc is a lowered procedure.
type seqProc struct {
	proc   *sem.Proc
	params []int // frame slots of the parameters
	size   int   // frame slots
	body   seqStmt
}

type seqInterp struct {
	info  *sem.Info
	procs map[*sem.Proc]*seqProc
}

// RunSequential interprets procedure procName of the checked program with
// the given arguments, using the reference (single machine, global arrays)
// semantics. I-structure violations and other run-time errors are returned
// as errors.
func RunSequential(info *sem.Info, procName string, args []ArgVal) (out *Outcome, err error) {
	p, ok := info.Procs[procName]
	if !ok {
		return nil, fmt.Errorf("exec: no procedure %s", procName)
	}
	if len(args) != len(p.Params) {
		return nil, fmt.Errorf("exec: %s expects %d argument(s), got %d", procName, len(p.Params), len(args))
	}
	it := &seqInterp{info: info, procs: map[*sem.Proc]*seqProc{}}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				out, err = nil, e
				return
			}
			panic(r)
		}
	}()
	ret, hasRet := it.call(it.lower(p), args)
	return &Outcome{HasRet: hasRet, Ret: ret}, nil
}

func (it *seqInterp) fail(pos lang.Pos, format string, args ...any) {
	panic(fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (it *seqInterp) failErr(err error) { panic(err) }

func (it *seqInterp) call(sp *seqProc, args []ArgVal) (ArgVal, bool) {
	p := sp.proc
	fr := &frame{cells: make([]cell, sp.size)}
	for i, prm := range p.Params {
		c := &fr.cells[sp.params[i]]
		a := args[i]
		switch {
		case prm.Type.Base == lang.TMatrix:
			if a.Matrix == nil {
				it.fail(p.Decl.Pos, "argument %d of %s must be a matrix", i+1, p.Name)
			}
			c.matrix = a.Matrix
		case prm.Type.Base == lang.TVector:
			if a.Vector == nil {
				it.fail(p.Decl.Pos, "argument %d of %s must be a vector", i+1, p.Name)
			}
			c.vector = a.Vector
		default:
			c.ivar = *istruct.NewIVar(prm.Name)
			if err := c.ivar.Write(a.Scalar); err != nil {
				it.failErr(err)
			}
		}
	}
	sp.body(fr)
	return fr.ret, fr.hasRet
}

// lower returns p's lowering, building it on first use. The procedure is
// registered before its body is lowered, so a recursive call site finds it.
func (it *seqInterp) lower(p *sem.Proc) *seqProc {
	if sp, ok := it.procs[p]; ok {
		return sp
	}
	sp := &seqProc{proc: p}
	it.procs[p] = sp
	l := &seqLowerer{it: it, slots: map[*sem.Symbol]int{}}
	for _, prm := range p.Params {
		sp.params = append(sp.params, l.slot(prm))
	}
	sp.body = l.block(p.Decl.Body)
	sp.size = len(l.slots)
	return sp
}

// seqLowerer lowers one procedure.
type seqLowerer struct {
	it    *seqInterp
	slots map[*sem.Symbol]int
}

func (l *seqLowerer) slot(sym *sem.Symbol) int {
	k, ok := l.slots[sym]
	if !ok {
		k = len(l.slots)
		l.slots[sym] = k
	}
	return k
}

func (l *seqLowerer) block(b *lang.Block) seqStmt {
	stmts := make([]seqStmt, len(b.Stmts))
	for i, st := range b.Stmts {
		stmts[i] = l.stmt(st)
	}
	return func(fr *frame) bool {
		for _, s := range stmts {
			if s(fr) {
				return true
			}
		}
		return false
	}
}

func (l *seqLowerer) stmt(st lang.Stmt) seqStmt {
	it := l.it
	switch st := st.(type) {
	case *lang.LetStmt:
		sym := it.info.SymbolOf(st)
		k := l.slot(sym)
		name := st.Name
		switch {
		case sym.Kind == sem.SymArray:
			if _, isAlloc := st.Init.(*lang.AllocExpr); isAlloc {
				dims := sym.Type.Dims
				if sym.Type.Base == lang.TMatrix {
					return func(fr *frame) bool {
						m, err := istruct.NewMatrix(name, dims[0], dims[1])
						if err != nil {
							it.failErr(err)
						}
						fr.cells[k] = cell{matrix: m}
						return false
					}
				}
				return func(fr *frame) bool {
					v, err := istruct.NewVector(name, dims[0])
					if err != nil {
						it.failErr(err)
					}
					fr.cells[k] = cell{vector: v}
					return false
				}
			}
			// Array-valued call.
			call := l.callExpr(st.Init.(*lang.CallExpr))
			return func(fr *frame) bool {
				rv := call(fr)
				fr.cells[k] = cell{matrix: rv.Matrix, vector: rv.Vector}
				return false
			}
		default:
			init := l.expr(st.Init)
			return func(fr *frame) bool {
				c := &fr.cells[k]
				c.ivar = *istruct.NewIVar(name)
				if err := c.ivar.Write(init(fr)); err != nil {
					it.failErr(err)
				}
				return false
			}
		}
	case *lang.AssignStmt:
		k := l.slot(it.info.SymbolOf(st))
		val := l.expr(st.Value)
		return func(fr *frame) bool {
			v := val(fr)
			if err := fr.cells[k].ivar.Write(v); err != nil {
				it.failErr(err)
			}
			return false
		}
	case *lang.StoreStmt:
		k := l.slot(it.info.SymbolOf(st))
		val := l.expr(st.Value)
		idx := l.exprs(st.Indices)
		return func(fr *frame) bool {
			c := &fr.cells[k]
			v := val(fr)
			if c.matrix != nil {
				i, j := int64(idx[0](fr)), int64(idx[1](fr))
				if err := c.matrix.Write(i, j, v); err != nil {
					it.failErr(err)
				}
			} else {
				i := int64(idx[0](fr))
				if err := c.vector.Write(i, v); err != nil {
					it.failErr(err)
				}
			}
			return false
		}
	case *lang.ForStmt:
		k := l.slot(it.info.SymbolOf(st))
		lo, hi := l.expr(st.Lo), l.expr(st.Hi)
		var step seqExpr
		if st.Step != nil {
			step = l.expr(st.Step)
		}
		body := l.block(st.Body)
		pos := st.Pos
		return func(fr *frame) bool {
			lo, hi := int64(lo(fr)), int64(hi(fr))
			inc := int64(1)
			if step != nil {
				inc = int64(step(fr))
				if inc <= 0 {
					it.fail(pos, "loop step must be positive, got %d", inc)
				}
			}
			for x := lo; x <= hi; x += inc {
				fr.cells[k].loop = Value(x)
				if body(fr) {
					return true
				}
			}
			return false
		}
	case *lang.IfStmt:
		cond, then := l.expr(st.Cond), l.block(st.Then)
		var els seqStmt
		if st.Else != nil {
			els = l.block(st.Else)
		}
		return func(fr *frame) bool {
			if cond(fr) != 0 {
				return then(fr)
			}
			return els != nil && els(fr)
		}
	case *lang.CallStmt:
		call := l.call(st.Name, st.Args)
		return func(fr *frame) bool {
			call(fr)
			return false
		}
	case *lang.ReturnStmt:
		if st.Value == nil {
			return func(fr *frame) bool {
				fr.ret, fr.hasRet = ArgVal{}, true
				return true
			}
		}
		if vr, ok := st.Value.(*lang.VarRef); ok {
			if sym := it.info.SymbolOf(vr); sym.Kind == sem.SymArray {
				k := l.slot(sym)
				return func(fr *frame) bool {
					c := &fr.cells[k]
					fr.ret, fr.hasRet = ArgVal{Matrix: c.matrix, Vector: c.vector}, true
					return true
				}
			}
		}
		val := l.expr(st.Value)
		return func(fr *frame) bool {
			fr.ret, fr.hasRet = ArgVal{IsScal: true, Scalar: val(fr)}, true
			return true
		}
	default:
		pos := st.Position()
		return func(*frame) bool {
			it.fail(pos, "unsupported statement in interpreter")
			return false
		}
	}
}

// call lowers a call site: array arguments pass their frame's arrays,
// scalars their values.
func (l *seqLowerer) call(name string, args []lang.Expr) func(fr *frame) (ArgVal, bool) {
	it := l.it
	callee := it.lower(it.info.Procs[name])
	argv := make([]func(fr *frame) ArgVal, len(args))
	for i, a := range args {
		if callee.proc.Params[i].Type.IsArray() {
			k := l.slot(it.info.SymbolOf(a.(*lang.VarRef)))
			argv[i] = func(fr *frame) ArgVal {
				c := &fr.cells[k]
				return ArgVal{Matrix: c.matrix, Vector: c.vector}
			}
		} else {
			x := l.expr(a)
			argv[i] = func(fr *frame) ArgVal { return ArgVal{IsScal: true, Scalar: x(fr)} }
		}
	}
	return func(fr *frame) (ArgVal, bool) {
		vals := make([]ArgVal, len(argv))
		for i, a := range argv {
			vals[i] = a(fr)
		}
		return it.call(callee, vals)
	}
}

// callExpr lowers a call whose value is used.
func (l *seqLowerer) callExpr(e *lang.CallExpr) func(fr *frame) ArgVal {
	call := l.call(e.Name, e.Args)
	return func(fr *frame) ArgVal {
		rv, ok := call(fr)
		if !ok {
			l.it.fail(e.Pos, "procedure %s did not return a value", e.Name)
		}
		return rv
	}
}

func (l *seqLowerer) exprs(es []lang.Expr) []seqExpr {
	out := make([]seqExpr, len(es))
	for i, e := range es {
		out[i] = l.expr(e)
	}
	return out
}

func (l *seqLowerer) expr(e lang.Expr) seqExpr {
	it := l.it
	switch e := e.(type) {
	case *lang.NumLit:
		v := e.Val
		return func(*frame) Value { return v }
	case *lang.BoolLit:
		v := Value(0)
		if e.Val {
			v = 1
		}
		return func(*frame) Value { return v }
	case *lang.VarRef:
		sym := it.info.SymbolOf(e)
		if sym.Kind == sem.SymConst {
			v := sym.Const
			return func(*frame) Value { return v }
		}
		k := l.slot(sym)
		if sym.Kind == sem.SymLoopVar {
			return func(fr *frame) Value { return fr.cells[k].loop }
		}
		return func(fr *frame) Value {
			v, err := fr.cells[k].ivar.Read()
			if err != nil {
				it.failErr(err)
			}
			return v
		}
	case *lang.IndexExpr:
		k := l.slot(it.info.SymbolOf(e))
		idx := l.exprs(e.Indices)
		return func(fr *frame) Value {
			c := &fr.cells[k]
			if c.matrix != nil {
				v, err := c.matrix.Read(int64(idx[0](fr)), int64(idx[1](fr)))
				if err != nil {
					it.failErr(err)
				}
				return v
			}
			v, err := c.vector.Read(int64(idx[0](fr)))
			if err != nil {
				it.failErr(err)
			}
			return v
		}
	case *lang.UnExpr:
		x := l.expr(e.X)
		if e.Op == lang.OpNeg {
			return func(fr *frame) Value { return -x(fr) }
		}
		return func(fr *frame) Value {
			if x(fr) != 0 {
				return 0
			}
			return 1
		}
	case *lang.BinExpr:
		x, y := l.expr(e.L), l.expr(e.R)
		op, pos := e.Op, e.Pos
		fail := func(msg string) { it.fail(pos, "%s", msg) }
		return func(fr *frame) Value { return EvalBin(op, x(fr), y(fr), fail) }
	case *lang.CallExpr:
		call := l.callExpr(e)
		pos := e.Pos
		return func(fr *frame) Value {
			rv := call(fr)
			if !rv.IsScal {
				it.fail(pos, "array-valued call used as a scalar")
			}
			return rv.Scalar
		}
	default:
		pos := e.Position()
		return func(*frame) Value {
			it.fail(pos, "unsupported expression in interpreter")
			return 0
		}
	}
}

// EvalBin applies a binary operator to runtime values with Idn semantics:
// div is floor division, mod is Euclidean, comparisons yield 1/0. The fail
// callback reports division by zero.
func EvalBin(op lang.Op, l, r Value, fail func(string)) Value {
	boolToV := func(b bool) Value {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case lang.OpAdd:
		return l + r
	case lang.OpSub:
		return l - r
	case lang.OpMul:
		return l * r
	case lang.OpDivReal:
		if r == 0 {
			fail("division by zero")
			return 0
		}
		return l / r
	case lang.OpDivInt:
		if r == 0 {
			fail("division by zero")
			return 0
		}
		return Value(floorDivI(int64(l), int64(r)))
	case lang.OpMod:
		if r == 0 {
			fail("mod by zero")
			return 0
		}
		return Value(eucModI(int64(l), int64(r)))
	case lang.OpEq:
		return boolToV(l == r)
	case lang.OpNe:
		return boolToV(l != r)
	case lang.OpLt:
		return boolToV(l < r)
	case lang.OpLe:
		return boolToV(l <= r)
	case lang.OpGt:
		return boolToV(l > r)
	case lang.OpGe:
		return boolToV(l >= r)
	case lang.OpAnd:
		return boolToV(l != 0 && r != 0)
	case lang.OpOr:
		return boolToV(l != 0 || r != 0)
	case lang.OpMin:
		return math.Min(l, r)
	case lang.OpMax:
		return math.Max(l, r)
	default:
		fail(fmt.Sprintf("unsupported operator %v", op))
		return 0
	}
}

func floorDivI(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func eucModI(a, m int64) int64 {
	if m < 0 {
		m = -m
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
