package exec

import (
	"math"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/spmd"
)

// IndexCost is the flat operation charge for computing one array or buffer
// subscript (the local-index arithmetic of the paper's column_local).
const IndexCost = 2

// Lowered is an spmd.Program resolved once onto integer slots: every scalar
// variable, array and buffer name becomes an index into its executor's
// per-process slices, every integer expression is compiled over the scalar
// slots (expr.Compile), and every statement's operation charge is
// precomputed. The run-time resolution program is generic, so one lowering
// is shared by all S processes; each executor keeps only its own slot
// values. Two executors consume it: the SPMD interpreter (pstate) and the
// static cost walker (internal/autotune), so the charge table exists once.
type Lowered struct {
	Body []LStmt
	// Names maps a scalar slot to its variable name; slot MeSlot is spmd.Me.
	Names []string
	// Arrays and Bufs map array and buffer slots to their names.
	Arrays, Bufs []string
	// Exprs counts the non-constant compiled expressions; LExpr.ID indexes
	// them, so an executor can keep per-expression state in a slice.
	Exprs int
}

// MeSlot is the scalar slot of spmd.Me in every lowered program.
const MeSlot = 0

// LKind is a lowered statement's kind, one per spmd statement type.
type LKind uint8

// Lowered statement kinds.
const (
	LAlloc LKind = iota
	LAllocBuf
	LAssignVar
	LAssignIVar
	LARead
	LAWrite
	LBufRead
	LBufWrite
	LSend
	LRecv
	LSendBuf
	LRecvBuf
	LCoerce
	LFor
	LGuard
	LIf
	LBad // a statement the lowering does not know; executing it fails
)

// LStmt is one lowered statement. Fields a kind does not use stay zero.
type LStmt struct {
	Kind LKind
	// Ops is the operation charge on entry: the value expression's operator
	// count plus IndexCost for a subscript, 1 for a guard's mynode() test,
	// 2 for a coerce's owner/needer membership tests.
	Ops int64
	// Dst is the scalar slot the statement writes: assignment target, read,
	// receive or coerce destination, or loop variable (-1 for none).
	Dst int
	// Ref is the array or buffer slot the statement accesses; for a coerce,
	// its source: an array slot, or a scalar slot when Src.Array is empty.
	Ref int
	Tag int64
	Val *LVal // assigned, stored or sent value; branch condition
	// X, Y, Z by kind: For lo/hi/step; SendBuf/RecvBuf peer/lo/hi;
	// Send/Recv peer; Coerce owner/needer; Guard process; BufRead/BufWrite
	// index; AllocBuf size.
	X, Y, Z *LExpr
	Idx     []*LExpr // array subscripts; Alloc shape
	// Body is the For/Guard body or the IfValue then-branch.
	Body, Else []LStmt
	Src        spmd.Stmt // the source statement: coerce roles, diagnostics
}

// LExpr is a compiled integer expression. Constants (ID < 0) carry their
// value; the rest carry code over the scalar slots and their source, whose
// Eval gives the exact error when the code fails. Lowered expressions are
// immutable, so one program's equal constants share one LExpr.
type LExpr struct {
	Src  expr.Expr
	Code expr.Compiled
	ID   int
	Val  int64
}

// LValKind is a lowered data-value expression's kind.
type LValKind uint8

// Lowered value expression kinds.
const (
	ValConst LValKind = iota
	ValVar
	ValInt
	ValBin
	ValUn
	ValOther // an unknown value expression; Src has it
)

// LVal is a lowered data-value expression. Like LExpr it is immutable, so
// one program's equal constant and variable leaves share one LVal.
type LVal struct {
	Kind LValKind
	F    float64 // ValConst
	Slot int     // ValVar
	X    *LExpr  // ValInt
	Op   lang.Op
	L, R *LVal      // ValBin operands; ValUn's operand is L
	Src  spmd.VExpr // ValOther
}

// Lower resolves p onto slots and compiles its expressions. Parameters get
// array slots even when the body never mentions them, so the harness can
// scatter inputs into them.
func Lower(p *spmd.Program) *Lowered {
	l := &lowerer{lp: &Lowered{}, vars: map[string]int{}, arrays: map[string]int{}, bufs: map[string]int{},
		consts: map[int64]*LExpr{}, fconsts: map[uint64]*LVal{}, leaves: map[int]*LVal{}}
	l.slot(spmd.Me) // MeSlot
	for _, prm := range p.Params {
		l.array(prm.Name)
	}
	l.lp.Body = l.stmts(p.Body)
	return l.lp
}

// Env rebuilds the name-keyed environment of the bound scalar slots, for
// re-running a failed expression's Eval to get its exact message.
func (lp *Lowered) Env(vals []int64, bound []bool) expr.Env {
	env := expr.Env{}
	for s, ok := range bound {
		if ok {
			env[lp.Names[s]] = vals[s]
		}
	}
	return env
}

// slotOf returns name's slot in a lowered program's name table, or -1. It
// serves the harness's per-run lookups (scatter, gather, outputs), never
// execution.
func slotOf(names []string, name string) int {
	for s, n := range names {
		if n == name {
			return s
		}
	}
	return -1
}

type lowerer struct {
	lp                 *Lowered
	vars, arrays, bufs map[string]int
	consts             map[int64]*LExpr
	fconsts            map[uint64]*LVal // by math.Float64bits: 0 and -0 differ
	leaves             map[int]*LVal    // ValVar by slot
}

func intern(m map[string]int, names *[]string, name string) int {
	s, ok := m[name]
	if !ok {
		s = len(*names)
		m[name] = s
		*names = append(*names, name)
	}
	return s
}

func (l *lowerer) slot(name string) int  { return intern(l.vars, &l.lp.Names, name) }
func (l *lowerer) array(name string) int { return intern(l.arrays, &l.lp.Arrays, name) }
func (l *lowerer) buf(name string) int   { return intern(l.bufs, &l.lp.Bufs, name) }

func (l *lowerer) expr(e expr.Expr) *LExpr {
	v, ok := e.ConstVal()
	if !ok {
		x := &LExpr{Src: e, Code: e.Compile(l.slot), ID: l.lp.Exprs}
		l.lp.Exprs++
		return x
	}
	x, ok := l.consts[v]
	if !ok {
		x = &LExpr{Src: e, ID: -1, Val: v}
		l.consts[v] = x
	}
	return x
}

func (l *lowerer) exprs(es []expr.Expr) []*LExpr {
	out := make([]*LExpr, len(es))
	for i, e := range es {
		out[i] = l.expr(e)
	}
	return out
}

func (l *lowerer) val(v spmd.VExpr) *LVal {
	switch v := v.(type) {
	case spmd.VConst:
		x, ok := l.fconsts[math.Float64bits(v.F)]
		if !ok {
			x = &LVal{Kind: ValConst, F: v.F}
			l.fconsts[math.Float64bits(v.F)] = x
		}
		return x
	case spmd.VVar:
		s := l.slot(v.Name)
		x, ok := l.leaves[s]
		if !ok {
			x = &LVal{Kind: ValVar, Slot: s}
			l.leaves[s] = x
		}
		return x
	case spmd.VInt:
		return &LVal{Kind: ValInt, X: l.expr(v.X)}
	case spmd.VBin:
		return &LVal{Kind: ValBin, Op: v.Op, L: l.val(v.L), R: l.val(v.R)}
	case spmd.VUn:
		return &LVal{Kind: ValUn, Op: v.Op, L: l.val(v.X)}
	default:
		return &LVal{Kind: ValOther, Src: v}
	}
}

// vexprOps counts operator nodes, for cost accounting.
func vexprOps(v spmd.VExpr) int64 {
	switch v := v.(type) {
	case spmd.VBin:
		return 1 + vexprOps(v.L) + vexprOps(v.R)
	case spmd.VUn:
		return 1 + vexprOps(v.X)
	default:
		return 0
	}
}

func (l *lowerer) stmts(body []spmd.Stmt) []LStmt {
	out := make([]LStmt, len(body))
	for i, s := range body {
		out[i] = l.stmt(s)
	}
	return out
}

func (l *lowerer) stmt(s spmd.Stmt) LStmt {
	switch s := s.(type) {
	case *spmd.Alloc:
		return LStmt{Kind: LAlloc, Dst: -1, Ref: l.array(s.Array), Idx: l.exprs(s.Shape), Src: s}
	case *spmd.AllocBuf:
		return LStmt{Kind: LAllocBuf, Dst: -1, Ref: l.buf(s.Buf), X: l.expr(s.Size), Src: s}
	case *spmd.AssignVar:
		return LStmt{Kind: LAssignVar, Ops: vexprOps(s.Val), Dst: l.slot(s.Name), Val: l.val(s.Val), Src: s}
	case *spmd.AssignIVar:
		return LStmt{Kind: LAssignIVar, Ops: vexprOps(s.Val), Dst: l.slot(s.Name), Val: l.val(s.Val), Src: s}
	case *spmd.ARead:
		return LStmt{Kind: LARead, Ops: IndexCost, Dst: l.slot(s.Dst), Ref: l.array(s.Array), Idx: l.exprs(s.Idx), Src: s}
	case *spmd.AWrite:
		return LStmt{Kind: LAWrite, Ops: IndexCost + vexprOps(s.Val), Dst: -1, Ref: l.array(s.Array),
			Idx: l.exprs(s.Idx), Val: l.val(s.Val), Src: s}
	case *spmd.BufRead:
		return LStmt{Kind: LBufRead, Ops: IndexCost, Dst: l.slot(s.Dst), Ref: l.buf(s.Buf), X: l.expr(s.Idx), Src: s}
	case *spmd.BufWrite:
		return LStmt{Kind: LBufWrite, Ops: IndexCost + vexprOps(s.Val), Dst: -1, Ref: l.buf(s.Buf),
			X: l.expr(s.Idx), Val: l.val(s.Val), Src: s}
	case *spmd.Send:
		return LStmt{Kind: LSend, Ops: vexprOps(s.Val), Dst: -1, X: l.expr(s.Dst), Tag: s.Tag, Val: l.val(s.Val), Src: s}
	case *spmd.Recv:
		return LStmt{Kind: LRecv, Dst: l.slot(s.Dst), X: l.expr(s.Src), Tag: s.Tag, Src: s}
	case *spmd.SendBuf:
		return LStmt{Kind: LSendBuf, Dst: -1, Ref: l.buf(s.Buf), X: l.expr(s.Dst), Y: l.expr(s.Lo), Z: l.expr(s.Hi),
			Tag: s.Tag, Src: s}
	case *spmd.RecvBuf:
		return LStmt{Kind: LRecvBuf, Dst: -1, Ref: l.buf(s.Buf), X: l.expr(s.Src), Y: l.expr(s.Lo), Z: l.expr(s.Hi),
			Tag: s.Tag, Src: s}
	case *spmd.Coerce:
		ls := LStmt{Kind: LCoerce, Ops: 2, Dst: l.slot(s.Dst), X: l.expr(s.Owner), Y: l.expr(s.Needer), Tag: s.Tag, Src: s}
		if s.Array != "" {
			ls.Ref, ls.Idx = l.array(s.Array), l.exprs(s.Idx)
		} else {
			ls.Ref = l.slot(s.Var)
		}
		return ls
	case *spmd.For:
		return LStmt{Kind: LFor, Dst: l.slot(s.Var), X: l.expr(s.Lo), Y: l.expr(s.Hi), Z: l.expr(s.Step),
			Body: l.stmts(s.Body), Src: s}
	case *spmd.Guard:
		return LStmt{Kind: LGuard, Ops: 1, Dst: -1, X: l.expr(s.Proc), Body: l.stmts(s.Body), Src: s}
	case *spmd.IfValue:
		return LStmt{Kind: LIf, Ops: vexprOps(s.Cond), Dst: -1, Val: l.val(s.Cond),
			Body: l.stmts(s.Then), Else: l.stmts(s.Else), Src: s}
	default:
		return LStmt{Kind: LBad, Dst: -1, Src: s}
	}
}
