package exec

import (
	"context"
	"errors"
	"fmt"

	"procdecomp/internal/dist"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// SPMDOutcome is the result of a distributed run: gathered global values
// plus the machine's performance statistics.
type SPMDOutcome struct {
	Stats machine.Stats
	// Arrays holds the output arrays reassembled from the owners' local
	// pieces (undefined elements stay undefined).
	Arrays map[string]*istruct.Matrix
	// Scalars holds output scalar I-variables, read from their owners.
	Scalars map[string]Value
}

// RunSPMD executes the compiled programs on a fresh simulated machine.
// progs must either hold exactly one generic program (Proc == -1, executed
// by every process — run-time resolution) or cfg.Procs specialized programs
// indexed by process number (compile-time resolution). inputs supplies the
// global contents of each parameter array; the harness scatters them to the
// owners before timing starts.
func RunSPMD(progs []*spmd.Program, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	return RunSPMDCtx(context.Background(), progs, cfg, inputs)
}

// RunSPMDCtx is RunSPMD under a context: the context's Done channel is wired
// to the machine's Cancel hook, so a deadline or cancellation aborts the
// simulated run at the next machine action of any process. A canceled run
// returns an error satisfying errors.Is against both machine.ErrCanceled and
// the context's own error (context.Canceled or context.DeadlineExceeded), so
// callers can tell a host-side abort from a simulation failure.
func RunSPMDCtx(ctx context.Context, progs []*spmd.Program, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	if done := ctx.Done(); done != nil {
		cfg.Cancel = done
	}
	out, err := runSPMD(progs, cfg, inputs)
	if err != nil && errors.Is(err, machine.ErrCanceled) && ctx.Err() != nil {
		return nil, fmt.Errorf("exec: %w: %w", err, ctx.Err())
	}
	return out, err
}

func runSPMD(progs []*spmd.Program, cfg machine.Config, inputs map[string]*istruct.Matrix) (*SPMDOutcome, error) {
	pick := func(p int) *spmd.Program { return progs[p] }
	lower := func(p int) *Lowered { return Lower(progs[p]) }
	switch {
	case len(progs) == 1 && progs[0].Proc < 0:
		pick = func(int) *spmd.Program { return progs[0] }
		generic := Lower(progs[0])
		lower = func(int) *Lowered { return generic }
	case len(progs) == cfg.Procs:
		for i, pr := range progs {
			if pr.Proc != i {
				return nil, fmt.Errorf("exec: program %d is specialized for process %d", i, pr.Proc)
			}
		}
	default:
		return nil, fmt.Errorf("exec: got %d program(s) for %d processes", len(progs), cfg.Procs)
	}

	m := machine.New(cfg)
	states := make([]*pstate, cfg.Procs)
	for i := range states {
		states[i] = newPState(pick(i), lower(i), i)
	}
	// Scatter input arrays (setup, not timed). Every program of one run is
	// compiled from the same procedure, so a parameter name means one global
	// array under one mapping: one pass over it builds all S pieces.
	type pieces struct {
		local []*istruct.Matrix
		errs  []error
	}
	scattered := map[string]pieces{}
	for i, st := range states {
		for _, prm := range st.prog.Params {
			sc, ok := scattered[prm.Name]
			if !ok {
				g, ok := inputs[prm.Name]
				if !ok {
					return nil, fmt.Errorf("exec: no input supplied for parameter %s", prm.Name)
				}
				sc.local, sc.errs = scatterAll(g, prm.Dist, cfg.Procs)
				scattered[prm.Name] = sc
			}
			if err := sc.errs[i]; err != nil {
				return nil, fmt.Errorf("exec: parameter %s: %w", prm.Name, err)
			}
			st.arrays[slotOf(st.lp.Arrays, prm.Name)] = sc.local[i]
		}
	}

	err := m.Run(func(p *machine.Proc) {
		st := states[p.ID()]
		st.p = p
		st.exec(st.lp.Body)
	})
	if err != nil {
		return nil, err
	}
	// A traced run self-checks: the event log must reconcile exactly with the
	// machine's compute/comm/idle partition.
	if err := m.VerifyTrace(); err != nil {
		return nil, err
	}

	stats, err := m.Stats()
	if err != nil {
		return nil, err
	}
	out := &SPMDOutcome{
		Stats:   stats,
		Arrays:  map[string]*istruct.Matrix{},
		Scalars: map[string]Value{},
	}
	for _, o := range pick(0).Outputs {
		if o.IsArray {
			info := pick(0).Arrays[o.Name]
			g, gerr := gather(states, o.Name, info)
			if gerr != nil {
				return nil, gerr
			}
			out.Arrays[o.Name] = g
		} else {
			owner := int64(0)
			if o.ScalarDist != nil && o.ScalarDist.Kind() == dist.KindSingle {
				owner, _ = dist.ProcOf(o.ScalarDist)
			}
			iv := states[owner].ivar(o.Name)
			if iv == nil || !iv.Defined() {
				return nil, fmt.Errorf("exec: output scalar %s undefined on process %d", o.Name, owner)
			}
			v, _ := iv.Read()
			out.Scalars[o.Name] = v
		}
	}
	return out, nil
}

// scatterAll builds every process's local piece of a global input array in
// one pass over it; replicated elements go to every piece. A mapping that is
// inconsistent with the array — a degenerate local allocation, or a local
// index outside it — is reported in errs[p] for each process p it breaks
// (the first failure in row-major order), naming the array, the mapping and
// the offending element, so callers (and ultimately `pdrun -check`) can
// surface it instead of crashing on a raw panic.
func scatterAll(g *istruct.Matrix, d dist.Dist, procs int) (local []*istruct.Matrix, errs []error) {
	local, errs = make([]*istruct.Matrix, procs), make([]error, procs)
	ls := d.LocalShape()
	for p := range local {
		var err error
		if local[p], err = istruct.NewMatrix(g.Name(), ls[0], ls[1]); err != nil {
			err = fmt.Errorf("scatter %s under %s: local allocation %v: %w", g.Name(), d, ls, err)
			for p := range errs {
				errs[p] = err
			}
			return local, errs
		}
	}
	put := func(p, i, j int64, v Value, l []int64) {
		if errs[p] != nil {
			return
		}
		if err := local[p].Write(l[0], l[1], v); err != nil {
			errs[p] = fmt.Errorf("scatter %s[%d,%d] under %s to process %d at local [%d,%d]: %w",
				g.Name(), i, j, d, p, l[0], l[1], err)
		}
	}
	idx := make([]int64, 2)
	rows, cols := g.Rows(), g.Cols()
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			if !g.Defined(i, j) {
				continue
			}
			idx[0], idx[1] = i, j
			owner := d.Owner(idx)
			if owner != dist.All && (owner < 0 || owner >= int64(procs)) {
				continue
			}
			v, _ := g.Read(i, j)
			l := d.Local(idx)
			if owner != dist.All {
				put(owner, i, j, v, l)
				continue
			}
			for p := int64(0); p < int64(procs); p++ {
				put(p, i, j, v, l)
			}
		}
	}
	return local, errs
}

// gather reassembles a global array from the owners' local pieces. Vectors
// (rank 1) gather into an n×1 matrix, matching their local representation.
func gather(states []*pstate, name string, info spmd.ArrayInfo) (*istruct.Matrix, error) {
	shape := info.GlobalShape
	rows, cols := shape[0], int64(1)
	if len(shape) == 2 {
		cols = shape[1]
	}
	g, err := istruct.NewMatrix(name, rows, cols)
	if err != nil {
		return nil, err
	}
	d := info.Dist
	idx := make([]int64, len(shape))
	locals := make([]*istruct.Matrix, len(states)) // resolved on first use
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			idx[0] = i
			if len(shape) == 2 {
				idx[1] = j
			}
			owner := d.Owner(idx)
			if owner == dist.All {
				owner = 0
			}
			local := locals[owner]
			if local == nil {
				if local = states[owner].array(name); local == nil {
					return nil, fmt.Errorf("exec: process %d never allocated %s", owner, name)
				}
				locals[owner] = local
			}
			l := d.Local(idx)
			li, lj := l[0], int64(1)
			if len(l) == 2 {
				lj = l[1]
			}
			if !local.Defined(li, lj) {
				continue
			}
			v, _ := local.Read(li, lj)
			if err := g.Write(i, j, v); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// pstate is one process's interpreter state over a lowered program: every
// name was resolved to a slot once, so execution indexes slices.
type pstate struct {
	prog *spmd.Program
	lp   *Lowered
	me   int64
	p    *machine.Proc
	// Per scalar slot: the integer view (me, temporaries, I-variables and
	// loop variables) with its bound flags, the mutable temporaries' data
	// values with theirs, and the write-once I-variables.
	ints  []int64
	bound []bool
	vals  []Value
	isVar []bool
	ivars []*istruct.IVar
	// Per array and buffer slot; nil until allocated.
	arrays []*istruct.Matrix
	bufs   [][]Value
	binErr func(string) // EvalBin's failure report
}

func newPState(prog *spmd.Program, lp *Lowered, me int) *pstate {
	n := len(lp.Names)
	st := &pstate{
		prog: prog, lp: lp, me: int64(me),
		ints: make([]int64, n), bound: make([]bool, n),
		vals: make([]Value, n), isVar: make([]bool, n),
		ivars:  make([]*istruct.IVar, n),
		arrays: make([]*istruct.Matrix, len(lp.Arrays)),
		bufs:   make([][]Value, len(lp.Bufs)),
	}
	st.ints[MeSlot], st.bound[MeSlot] = int64(me), true
	st.binErr = func(msg string) { st.failf("process %d: %s", st.me, msg) }
	return st
}

// array returns the named array's local piece, nil if never allocated.
func (st *pstate) array(name string) *istruct.Matrix {
	if s := slotOf(st.lp.Arrays, name); s >= 0 {
		return st.arrays[s]
	}
	return nil
}

// ivar returns the named I-variable, nil if never written.
func (st *pstate) ivar(name string) *istruct.IVar {
	if s := slotOf(st.lp.Names, name); s >= 0 {
		return st.ivars[s]
	}
	return nil
}

func (st *pstate) failf(format string, args ...any) {
	panic(fmt.Errorf(format, args...))
}

func (st *pstate) setVar(s int, v Value) {
	st.vals[s], st.isVar[s] = v, true
	st.ints[s], st.bound[s] = int64(v), true
}

func (st *pstate) intOf(x *LExpr) int64 {
	if x.ID < 0 {
		return x.Val
	}
	if v, ok := x.Code.Eval(st.ints, st.bound); ok {
		return v
	}
	v, err := x.Src.Eval(st.lp.Env(st.ints, st.bound))
	if err != nil {
		st.failf("process %d: %v", st.me, err)
	}
	return v
}

func (st *pstate) evalV(v *LVal) Value {
	switch v.Kind {
	case ValConst:
		return v.F
	case ValVar:
		if st.isVar[v.Slot] {
			return st.vals[v.Slot]
		}
		if iv := st.ivars[v.Slot]; iv != nil {
			val, err := iv.Read()
			if err != nil {
				st.failf("process %d: %v", st.me, err)
			}
			return val
		}
		st.failf("process %d: undefined variable %s", st.me, st.lp.Names[v.Slot])
		return 0
	case ValInt:
		return Value(st.intOf(v.X))
	case ValBin:
		return EvalBin(v.Op, st.evalV(v.L), st.evalV(v.R), st.binErr)
	case ValUn:
		x := st.evalV(v.L)
		if v.Op == lang.OpNeg {
			return -x
		}
		if x != 0 {
			return 0
		}
		return 1
	default:
		st.failf("process %d: unknown value expression %T", st.me, v.Src)
		return 0
	}
}

func (st *pstate) exec(body []LStmt) {
	for i := range body {
		st.stmt(&body[i])
	}
}

func (st *pstate) stmt(s *LStmt) {
	switch s.Kind {
	case LAlloc:
		var rows, cols int64
		switch len(s.Idx) {
		case 2:
			rows, cols = st.intOf(s.Idx[0]), st.intOf(s.Idx[1])
		case 1:
			rows, cols = st.intOf(s.Idx[0]), 1
		default:
			st.failf("process %d: alloc of rank %d", st.me, len(s.Idx))
		}
		m, err := istruct.NewMatrix(st.lp.Arrays[s.Ref], rows, cols)
		if err != nil {
			st.failf("process %d: %v", st.me, err)
		}
		st.arrays[s.Ref] = m
	case LAllocBuf:
		st.bufs[s.Ref] = make([]Value, st.intOf(s.X)+1) // 1-based
	case LAssignVar:
		st.p.Ops(s.Ops)
		st.setVar(s.Dst, st.evalV(s.Val))
	case LAssignIVar:
		st.p.Ops(s.Ops)
		v := st.evalV(s.Val)
		iv := st.ivars[s.Dst]
		if iv == nil {
			iv = istruct.NewIVar(st.lp.Names[s.Dst])
			st.ivars[s.Dst] = iv
		}
		if err := iv.Write(v); err != nil {
			st.failf("process %d: %v", st.me, err)
		}
		st.ints[s.Dst], st.bound[s.Dst] = int64(v), true
	case LARead:
		st.p.Ops(s.Ops)
		st.p.Mem(1)
		st.setVar(s.Dst, st.aread(s.Ref, s.Idx))
	case LAWrite:
		st.p.Ops(s.Ops)
		st.p.Mem(1)
		st.awrite(s.Ref, s.Idx, st.evalV(s.Val))
	case LBufRead:
		st.p.Ops(s.Ops)
		st.p.Mem(1)
		buf := st.buf(s.Ref)
		i := st.intOf(s.X)
		st.checkBuf(s.Ref, buf, i)
		st.setVar(s.Dst, buf[i])
	case LBufWrite:
		st.p.Ops(s.Ops)
		st.p.Mem(1)
		buf := st.buf(s.Ref)
		i := st.intOf(s.X)
		st.checkBuf(s.Ref, buf, i)
		buf[i] = st.evalV(s.Val)
	case LSend:
		st.p.Ops(s.Ops)
		st.p.Send(int(st.intOf(s.X)), s.Tag, st.evalV(s.Val))
	case LRecv:
		v := st.p.Recv1(int(st.intOf(s.X)), s.Tag)
		st.setVar(s.Dst, v)
	case LSendBuf:
		buf := st.buf(s.Ref)
		lo, hi := st.intOf(s.Y), st.intOf(s.Z)
		st.checkBuf(s.Ref, buf, lo)
		st.checkBuf(s.Ref, buf, hi)
		st.p.Send(int(st.intOf(s.X)), s.Tag, buf[lo:hi+1]...)
	case LRecvBuf:
		buf := st.buf(s.Ref)
		lo, hi := st.intOf(s.Y), st.intOf(s.Z)
		st.checkBuf(s.Ref, buf, lo)
		st.checkBuf(s.Ref, buf, hi)
		vals := st.p.Recv(int(st.intOf(s.X)), s.Tag)
		if int64(len(vals)) != hi-lo+1 {
			st.failf("process %d: block receive of %d values into %s[%d..%d]", st.me, len(vals), st.lp.Bufs[s.Ref], lo, hi)
		}
		copy(buf[lo:hi+1], vals)
	case LCoerce:
		st.coerce(s)
	case LFor:
		lo, hi, step := st.intOf(s.X), st.intOf(s.Y), st.intOf(s.Z)
		if step <= 0 {
			st.failf("process %d: loop step %d", st.me, step)
		}
		for x := lo; x <= hi; x += step {
			st.p.LoopStep()
			st.vals[s.Dst], st.isVar[s.Dst] = Value(x), true
			st.ints[s.Dst], st.bound[s.Dst] = x, true
			st.exec(s.Body)
		}
	case LGuard:
		st.p.Ops(s.Ops) // the mynode() test of run-time resolution
		if st.intOf(s.X) == st.me {
			st.exec(s.Body)
		}
	case LIf:
		st.p.Ops(s.Ops)
		if st.evalV(s.Val) != 0 {
			st.exec(s.Body)
		} else {
			st.exec(s.Else)
		}
	default:
		st.failf("process %d: unknown statement %T", st.me, s.Src)
	}
}

func (st *pstate) buf(s int) []Value {
	b := st.bufs[s]
	if b == nil {
		st.failf("process %d: undefined buffer %s", st.me, st.lp.Bufs[s])
	}
	return b
}

func (st *pstate) checkBuf(s int, buf []Value, i int64) {
	if i < 1 || i >= int64(len(buf)) {
		st.failf("process %d: buffer %s index %d out of range [1,%d]", st.me, st.lp.Bufs[s], i, len(buf)-1)
	}
}

// subscript evaluates an array access's local index.
func (st *pstate) subscript(a int, idx []*LExpr) (*istruct.Matrix, int64, int64) {
	arr := st.arrays[a]
	if arr == nil {
		st.failf("process %d: undefined array %s", st.me, st.lp.Arrays[a])
	}
	i, j := st.intOf(idx[0]), int64(1)
	if len(idx) == 2 {
		j = st.intOf(idx[1])
	}
	return arr, i, j
}

func (st *pstate) aread(a int, idx []*LExpr) Value {
	arr, i, j := st.subscript(a, idx)
	v, err := arr.Read(i, j)
	if err != nil {
		st.failf("process %d: %v", st.me, err)
	}
	return v
}

func (st *pstate) awrite(a int, idx []*LExpr, v Value) {
	arr, i, j := st.subscript(a, idx)
	if err := arr.Write(i, j, v); err != nil {
		st.failf("process %d: %v", st.me, err)
	}
}

// coerceSrc reads a coerce's source on its owner.
func (st *pstate) coerceSrc(s *LStmt, c *spmd.Coerce) Value {
	st.p.Mem(1)
	if c.Array != "" {
		st.p.Ops(IndexCost)
		return st.aread(s.Ref, s.Idx)
	}
	iv := st.ivars[s.Ref]
	if iv == nil {
		st.failf("process %d: coerce of undefined scalar %s", st.me, c.Var)
	}
	v, err := iv.Read()
	if err != nil {
		st.failf("process %d: %v", st.me, err)
	}
	return v
}

// coerce implements run-time resolution's value movement (§3.1). Every
// process executes the statement and plays its role; the ownership tests are
// charged as compute.
func (st *pstate) coerce(s *LStmt) {
	c := s.Src.(*spmd.Coerce)
	st.p.Ops(s.Ops) // owner/needer membership tests
	switch {
	case c.OwnerAll:
		// Replicated source: everyone who needs it reads its own copy.
		if c.NeederAll || st.intOf(s.Y) == st.me {
			st.setVar(s.Dst, st.coerceSrc(s, c))
		}
	case c.NeederAll:
		owner := st.intOf(s.X)
		if owner == st.me {
			v := st.coerceSrc(s, c)
			for q := 0; q < st.p.Procs(); q++ {
				if int64(q) != st.me {
					st.p.Send(q, s.Tag, v)
				}
			}
			st.setVar(s.Dst, v)
		} else {
			st.setVar(s.Dst, st.p.Recv1(int(owner), s.Tag))
		}
	default:
		owner, needer := st.intOf(s.X), st.intOf(s.Y)
		switch {
		case owner == needer:
			if owner == st.me {
				st.setVar(s.Dst, st.coerceSrc(s, c))
			}
		case owner == st.me:
			st.p.Send(int(needer), s.Tag, st.coerceSrc(s, c))
		case needer == st.me:
			st.setVar(s.Dst, st.p.Recv1(int(owner), s.Tag))
		}
	}
}
