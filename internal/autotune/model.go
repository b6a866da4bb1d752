package autotune

import (
	"fmt"

	"procdecomp/internal/exec"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// The static cost model: an abstract walk of each process's compiled program
// that mirrors the interpreter's cost accounting charge for charge
// (internal/exec) without computing any data values. Control flow — loop
// bounds, guards, message endpoints — is evaluated over the integer
// environment exactly as the interpreter would; data values are tracked as
// "unknown" and only become an error if control flow ever depends on one
// (ErrUnmodeled, the fallback-to-measurement signal).
//
// The walk of one process yields its action sequence: coalesced compute
// spans, sends, and receives, in program order. Because no modeled program's
// control flow depends on received values, every process can be walked
// independently; the message matching (k-th receive on a (src,tag) channel
// pairs with the sender's k-th send on it) reproduces the machine's FIFO
// mailbox semantics. Replaying the matched DAG under the machine's cost
// recurrence — the identical recurrence analysis.(*Dump).Predict uses —
// yields the predicted makespan, exact whenever the walk succeeded.
//
// The walker never interprets the spmd tree directly. BuildProfile first
// lowers each program once (lower): every variable name becomes an integer
// slot, every integer expression is compiled over those slots
// (expr.Compile), and every statement's operation charge (vexprOps plus
// subscript costs) is precomputed. The run-time resolution program is
// generic, so it is lowered once and shared by all S walkers; each walker
// keeps only its own slot values. Evaluation stays at the program point the
// interpreter evaluates at, so control flow, charges and error order are the
// interpreter's. Two devices keep it cheap and exact:
//
//   - A stamp memo. Every slot write (assignment, loop step, a value turning
//     unknown) takes a fresh stamp from the walker's clock; a compiled
//     expression's last value is reused only while none of its input slots
//     carries a stamp newer than the value. Failures are never cached.
//   - A slow path for failures. When a compiled expression fails, the walker
//     re-runs the source expression's expr.Eval over an environment rebuilt
//     from the known slots, so an ErrUnmodeled reason reads exactly as the
//     name-keyed evaluation words it.

// ErrUnmodeled reports a program whose control flow the static walk cannot
// decide (a branch on a computed data value). Candidates that hit it fall
// back to direct measurement.
type ErrUnmodeled struct {
	Proc   int
	Reason string
}

func (e *ErrUnmodeled) Error() string {
	return fmt.Sprintf("autotune: process %d not statically modelable: %s", e.Proc, e.Reason)
}

const (
	actCompute uint8 = iota
	actSend
	actRecv
)

// action is one step of a process's abstract execution. Profiles run to
// 10^5 actions per candidate, so the fields are packed into 32 bytes.
type action struct {
	dur    uint64 // compute: accumulated cycles
	tag    int64
	peer   int32 // send: destination; recv: source
	values int32 // send: values carried; recv: expected (-1 = any), then matched
	seq    int32 // per-(src,dst,tag) channel sequence, filled by matching
	kind   uint8
}

// Profile is the abstract execution of all processes: the statically derived
// communication DAG plus per-process busy times.
type Profile struct {
	Procs int
	Acts  [][]action
	// Messages/Values totals, after matching.
	Messages int64
	Values   int64
}

// chanKey identifies a FIFO message channel: the machine keys receiver
// mailboxes by (src, tag), so per (src, dst, tag) delivery is in send order.
type chanKey struct {
	src, dst int
	tag      int64
}

type msgID struct {
	ch  chanKey
	seq int32
}

// BuildProfile walks the compiled programs (one generic or cfg.Procs
// specialized, as exec.RunSPMD accepts them) and returns the matched profile.
func BuildProfile(progs []*spmd.Program, cfg machine.Config) (*Profile, error) {
	pick := func(p int) *lprog { return lower(progs[p]) }
	switch {
	case len(progs) == 1 && progs[0].Proc < 0:
		generic := lower(progs[0])
		pick = func(int) *lprog { return generic }
	case len(progs) == cfg.Procs:
		for i, pr := range progs {
			if pr.Proc != i {
				return nil, fmt.Errorf("autotune: program %d is specialized for process %d", i, pr.Proc)
			}
		}
	default:
		return nil, fmt.Errorf("autotune: got %d program(s) for %d processes", len(progs), cfg.Procs)
	}
	pf := &Profile{Procs: cfg.Procs, Acts: make([][]action, cfg.Procs)}
	for p := 0; p < cfg.Procs; p++ {
		w := newWalker(p, cfg, pick(p))
		if p > 0 {
			// Processes run near-identical action counts; start at the last.
			w.acts = make([]action, 0, len(pf.Acts[p-1]))
		}
		if err := w.stmts(w.prog.body); err != nil {
			return nil, err
		}
		w.flush()
		pf.Acts[p] = w.acts
	}
	if err := pf.match(); err != nil {
		return nil, err
	}
	return pf, nil
}

// match pairs receives with sends channel by channel and fills in message
// sizes. A receive with no matching send means the candidate would deadlock.
func (pf *Profile) match() error {
	sends := map[chanKey][]*action{}
	recvs := map[chanKey][]*action{}
	for p := range pf.Acts {
		for i := range pf.Acts[p] {
			a := &pf.Acts[p][i]
			switch a.kind {
			case actSend:
				k := chanKey{src: p, dst: int(a.peer), tag: a.tag}
				a.seq = int32(len(sends[k]))
				sends[k] = append(sends[k], a)
				pf.Messages++
				pf.Values += int64(a.values)
			case actRecv:
				k := chanKey{src: int(a.peer), dst: p, tag: a.tag}
				recvs[k] = append(recvs[k], a)
			}
		}
	}
	for k, rs := range recvs {
		ss := sends[k]
		if len(rs) > len(ss) {
			return fmt.Errorf("autotune: candidate deadlocks: %d receive(s) on %d->%d tag %d have no matching send",
				len(rs)-len(ss), k.src, k.dst, k.tag)
		}
		for i, r := range rs {
			if r.values >= 0 && r.values != ss[i].values {
				return fmt.Errorf("autotune: block receive on %d->%d tag %d expects %d values, send carries %d",
					k.src, k.dst, k.tag, r.values, ss[i].values)
			}
			r.values = ss[i].values
			r.seq = int32(i)
		}
	}
	return nil
}

// Busy returns each process's busy time: compute plus send/receive overheads,
// with all waits excluded. The maximum is the tier-1 static score — a lower
// bound on the candidate's makespan, cheap enough to rank the whole space.
func (pf *Profile) Busy(cfg machine.Config) []uint64 {
	busy := make([]uint64, pf.Procs)
	for p, acts := range pf.Acts {
		for _, a := range acts {
			switch a.kind {
			case actCompute:
				busy[p] += a.dur
			case actSend:
				busy[p] += cfg.SendStartup + uint64(a.values)*cfg.PerValue
			case actRecv:
				busy[p] += cfg.RecvStartup + uint64(a.values)*cfg.PerValue
			}
		}
	}
	return busy
}

// Static is the tier-1 score: the maximum busy time over processes.
func (pf *Profile) Static(cfg machine.Config) uint64 {
	var max uint64
	for _, b := range pf.Busy(cfg) {
		if b > max {
			max = b
		}
	}
	return max
}

// Predict replays the profile's communication DAG under the machine's cost
// parameters and returns the predicted makespan — the tier-2 score. The
// recurrence is the one analysis.(*Dump).Predict uses (and the machine
// implements): a send completes after startup + per-value packing and its
// message arrives Latency later; a receive waits for the arrival stamp, then
// pays startup + per-value unpacking.
func (pf *Profile) Predict(cfg machine.Config) (uint64, error) {
	clocks := make([]uint64, pf.Procs)
	idx := make([]int, pf.Procs)
	released := map[msgID]uint64{}
	for {
		progressed, done := false, true
		for p := range pf.Acts {
			for idx[p] < len(pf.Acts[p]) {
				a := pf.Acts[p][idx[p]]
				switch a.kind {
				case actRecv:
					rel, ok := released[msgID{ch: chanKey{src: int(a.peer), dst: p, tag: a.tag}, seq: a.seq}]
					if !ok {
						goto next // sender has not reached this message yet
					}
					if rel > clocks[p] {
						clocks[p] = rel
					}
					clocks[p] += cfg.RecvStartup + uint64(a.values)*cfg.PerValue
				case actSend:
					clocks[p] += cfg.SendStartup + uint64(a.values)*cfg.PerValue
					released[msgID{ch: chanKey{src: p, dst: int(a.peer), tag: a.tag}, seq: a.seq}] = clocks[p] + cfg.Latency
				default:
					clocks[p] += a.dur
				}
				idx[p]++
				progressed = true
			}
		next:
			if idx[p] < len(pf.Acts[p]) {
				done = false
			}
		}
		if done {
			break
		}
		if !progressed {
			return 0, fmt.Errorf("autotune: predicted replay deadlocked")
		}
	}
	var makespan uint64
	for _, c := range clocks {
		if c > makespan {
			makespan = c
		}
	}
	return makespan, nil
}

// indexCost is exec's flat subscript charge.
const indexCost = 2

// lprog is one spmd.Program lowered for the walker.
type lprog struct {
	body  []lstmt
	names []string // slot -> variable name
	exprs int      // memoized expressions, the size of a walker's memo
}

type lkind uint8

const (
	lAssign  lkind = iota // AssignVar, AssignIVar
	lAccess               // array or buffer element read/write
	lSend                 // Send
	lRecv                 // Recv
	lSendBuf              // SendBuf
	lRecvBuf              // RecvBuf
	lCoerce               // Coerce
	lFor                  // For
	lGuard                // Guard
	lIf                   // IfValue
	lBad                  // a statement the walker cannot model
)

// lstmt is one lowered statement. Fields a kind does not use stay zero.
type lstmt struct {
	kind lkind
	ops  int64 // operations charged on entry: vexprOps and subscripts
	// slot is the variable the statement writes: assignment target, loop
	// variable, or the destination a read or receive leaves unknown (-1
	// for none).
	slot      int
	tag       int64
	val       *lval     // assigned value or branch condition
	x, y, z   *lexpr    // For lo/hi/step; peer/lo/hi; Coerce owner/needer; Guard proc
	body, els []lstmt   // For/Guard body; IfValue then/else
	src       spmd.Stmt // Coerce roles, block buffer names, diagnostics
}

// lexpr is a compiled integer expression. id indexes the walker's memo;
// constants (id < 0) carry their value.
type lexpr struct {
	src  expr.Expr
	code expr.Compiled
	id   int
	val  int64
}

const (
	vConst uint8 = iota
	vVar
	vInt
	vBin
	vUn
	vOther // a value expression the walker treats as unknown
)

// lval is a lowered data-value expression.
type lval struct {
	kind uint8
	f    float64 // vConst
	slot int     // vVar
	x    *lexpr  // vInt
	op   lang.Op
	l, r *lval // vBin operands; vUn's operand is l
}

// meSlot is the slot of spmd.Me in every lowered program.
const meSlot = 0

// lower resolves p's variables to slots and compiles its expressions.
func lower(p *spmd.Program) *lprog {
	l := &lowerer{slots: map[string]int{}}
	l.slot(spmd.Me) // meSlot
	body := l.stmts(p.Body)
	return &lprog{body: body, names: l.names, exprs: l.exprs}
}

type lowerer struct {
	slots map[string]int
	names []string
	exprs int
}

func (l *lowerer) slot(name string) int {
	s, ok := l.slots[name]
	if !ok {
		s = len(l.names)
		l.slots[name] = s
		l.names = append(l.names, name)
	}
	return s
}

func (l *lowerer) expr(e expr.Expr) *lexpr {
	if v, ok := e.ConstVal(); ok {
		return &lexpr{src: e, id: -1, val: v}
	}
	x := &lexpr{src: e, code: e.Compile(l.slot), id: l.exprs}
	l.exprs++
	return x
}

func (l *lowerer) val(v spmd.VExpr) *lval {
	switch v := v.(type) {
	case spmd.VConst:
		return &lval{kind: vConst, f: v.F}
	case spmd.VVar:
		return &lval{kind: vVar, slot: l.slot(v.Name)}
	case spmd.VInt:
		return &lval{kind: vInt, x: l.expr(v.X)}
	case spmd.VBin:
		return &lval{kind: vBin, op: v.Op, l: l.val(v.L), r: l.val(v.R)}
	case spmd.VUn:
		return &lval{kind: vUn, op: v.Op, l: l.val(v.X)}
	default:
		return &lval{kind: vOther}
	}
}

// vexprOps mirrors exec.vexprOps: operator nodes cost one op each.
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

func (l *lowerer) stmts(body []spmd.Stmt) []lstmt {
	out := make([]lstmt, 0, len(body))
	for _, s := range body {
		switch s := s.(type) {
		case *spmd.Alloc, *spmd.AllocBuf:
			// Allocation is uncharged in the interpreter.
		case *spmd.AssignVar:
			out = append(out, lstmt{kind: lAssign, ops: vexprOps(s.Val), slot: l.slot(s.Name), val: l.val(s.Val)})
		case *spmd.AssignIVar:
			out = append(out, lstmt{kind: lAssign, ops: vexprOps(s.Val), slot: l.slot(s.Name), val: l.val(s.Val)})
		case *spmd.ARead:
			out = append(out, lstmt{kind: lAccess, ops: indexCost, slot: l.slot(s.Dst)}) // array contents are data
		case *spmd.AWrite:
			out = append(out, lstmt{kind: lAccess, ops: indexCost + vexprOps(s.Val), slot: -1})
		case *spmd.BufRead:
			out = append(out, lstmt{kind: lAccess, ops: indexCost, slot: l.slot(s.Dst)})
		case *spmd.BufWrite:
			out = append(out, lstmt{kind: lAccess, ops: indexCost + vexprOps(s.Val), slot: -1})
		case *spmd.Send:
			out = append(out, lstmt{kind: lSend, ops: vexprOps(s.Val), x: l.expr(s.Dst), tag: s.Tag})
		case *spmd.Recv:
			out = append(out, lstmt{kind: lRecv, x: l.expr(s.Src), tag: s.Tag, slot: l.slot(s.Dst)})
		case *spmd.SendBuf:
			out = append(out, lstmt{kind: lSendBuf, x: l.expr(s.Dst), y: l.expr(s.Lo), z: l.expr(s.Hi), tag: s.Tag, src: s})
		case *spmd.RecvBuf:
			out = append(out, lstmt{kind: lRecvBuf, x: l.expr(s.Src), y: l.expr(s.Lo), z: l.expr(s.Hi), tag: s.Tag, src: s})
		case *spmd.Coerce:
			out = append(out, lstmt{kind: lCoerce, x: l.expr(s.Owner), y: l.expr(s.Needer), tag: s.Tag,
				slot: l.slot(s.Dst), src: s})
		case *spmd.For:
			out = append(out, lstmt{kind: lFor, slot: l.slot(s.Var), x: l.expr(s.Lo), y: l.expr(s.Hi), z: l.expr(s.Step),
				body: l.stmts(s.Body)})
		case *spmd.Guard:
			out = append(out, lstmt{kind: lGuard, x: l.expr(s.Proc), body: l.stmts(s.Body)})
		case *spmd.IfValue:
			out = append(out, lstmt{kind: lIf, ops: vexprOps(s.Cond), val: l.val(s.Cond),
				body: l.stmts(s.Then), els: l.stmts(s.Else)})
		default:
			out = append(out, lstmt{kind: lBad, src: s})
		}
	}
	return out
}

// walker is the per-process abstract interpreter over a lowered program.
type walker struct {
	me    int64
	procs int
	cfg   machine.Config
	prog  *lprog
	// Per slot: the integer view (me, loop variables, known assignments)
	// and the known data value. They change together, except that me has
	// an integer value but no data value.
	ivals  []int64
	iknown []bool
	fvals  []float64
	fknown []bool
	stamp  []uint64 // clock of the slot's last write
	clock  uint64
	memo   []memo // by lexpr.id
	acts   []action
	acc    uint64 // pending compute cycles, flushed before sends/receives
}

// memo is an expression's last successful value and the clock it was
// computed at (0 = never).
type memo struct {
	val int64
	at  uint64
}

func newWalker(me int, cfg machine.Config, prog *lprog) *walker {
	n := len(prog.names)
	w := &walker{me: int64(me), procs: cfg.Procs, cfg: cfg, prog: prog,
		ivals: make([]int64, n), iknown: make([]bool, n),
		fvals: make([]float64, n), fknown: make([]bool, n),
		stamp: make([]uint64, n), clock: 1, memo: make([]memo, prog.exprs)}
	w.ivals[meSlot], w.iknown[meSlot] = int64(me), true
	return w
}

func (w *walker) failf(format string, args ...any) error {
	return &ErrUnmodeled{Proc: int(w.me), Reason: fmt.Sprintf(format, args...)}
}

// Cost charges, mirroring machine.Proc.
func (w *walker) ops(n int64) { w.acc += uint64(n) * w.cfg.OpCost }
func (w *walker) mem(n int64) { w.acc += uint64(n) * w.cfg.MemCost }
func (w *walker) loopStep()   { w.acc += w.cfg.LoopCost }

// flush closes the pending compute span.
func (w *walker) flush() {
	if w.acc > 0 {
		w.acts = append(w.acts, action{kind: actCompute, dur: w.acc})
		w.acc = 0
	}
}

func (w *walker) send(dst int64, tag int64, values int64) error {
	if dst < 0 || dst >= int64(w.procs) {
		return w.failf("send to processor %d out of range [0,%d)", dst, w.procs)
	}
	w.flush()
	w.acts = append(w.acts, action{kind: actSend, peer: int32(dst), tag: tag, values: int32(values)})
	return nil
}

func (w *walker) recv(src int64, tag int64, expect int64) error {
	if src < 0 || src >= int64(w.procs) {
		return w.failf("recv from processor %d out of range [0,%d)", src, w.procs)
	}
	w.flush()
	w.acts = append(w.acts, action{kind: actRecv, peer: int32(src), tag: tag, values: int32(expect)})
	return nil
}

// write stamps slot s as changed.
func (w *walker) write(s int) {
	w.clock++
	w.stamp[s] = w.clock
}

// setVar mirrors exec's setVar for a statically known value.
func (w *walker) setVar(s int, v float64) {
	w.fvals[s], w.fknown[s] = v, true
	w.ivals[s], w.iknown[s] = int64(v), true
	w.write(s)
}

// setUnknown marks a variable as data-dependent: later integer expressions
// that mention it will fail to evaluate, surfacing as ErrUnmodeled.
func (w *walker) setUnknown(s int) {
	w.fknown[s], w.iknown[s] = false, false
	w.write(s)
}

// eval evaluates a compiled integer expression, reusing the memoized value
// while none of its inputs has been written since.
func (w *walker) eval(x *lexpr) (int64, bool) {
	if x.id < 0 {
		return x.val, true
	}
	m := &w.memo[x.id]
	if m.at != 0 {
		fresh := true
		for _, s := range x.code.Slots() {
			if w.stamp[s] > m.at {
				fresh = false
				break
			}
		}
		if fresh {
			return m.val, true
		}
	}
	v, ok := x.code.Eval(w.ivals, w.iknown)
	if ok {
		*m = memo{val: v, at: w.clock}
	}
	return v, ok
}

// intOf evaluates a control expression. On failure it re-runs the source
// expression's Eval over the known slots for the exact error.
func (w *walker) intOf(x *lexpr) (int64, error) {
	if v, ok := w.eval(x); ok {
		return v, nil
	}
	env := expr.Env{}
	for s, known := range w.iknown {
		if known {
			env[w.prog.names[s]] = w.ivals[s]
		}
	}
	v, err := x.src.Eval(env)
	if err != nil {
		return 0, w.failf("%v", err)
	}
	return v, nil
}

// evalV evaluates a value expression if every input is statically known.
func (w *walker) evalV(v *lval) (float64, bool) {
	switch v.kind {
	case vConst:
		return v.f, true
	case vVar:
		return w.fvals[v.slot], w.fknown[v.slot]
	case vInt:
		i, ok := w.eval(v.x)
		return float64(i), ok
	case vBin:
		l, ok := w.evalV(v.l)
		if !ok {
			return 0, false
		}
		r, ok := w.evalV(v.r)
		if !ok {
			return 0, false
		}
		bad := false
		res := exec.EvalBin(v.op, l, r, func(string) { bad = true })
		return res, !bad
	case vUn:
		x, ok := w.evalV(v.l)
		if !ok {
			return 0, false
		}
		if v.op == lang.OpNeg {
			return -x, true
		}
		if x != 0 {
			return 0, true
		}
		return 1, true
	default:
		return 0, false
	}
}

func (w *walker) stmts(body []lstmt) error {
	for i := range body {
		if err := w.stmt(&body[i]); err != nil {
			return err
		}
	}
	return nil
}

// stmt mirrors exec.(*pstate).stmt charge for charge.
func (w *walker) stmt(s *lstmt) error {
	switch s.kind {
	case lAssign:
		w.ops(s.ops)
		if v, ok := w.evalV(s.val); ok {
			w.setVar(s.slot, v)
		} else {
			w.setUnknown(s.slot)
		}
		return nil
	case lAccess:
		w.ops(s.ops)
		w.mem(1)
		if s.slot >= 0 {
			w.setUnknown(s.slot)
		}
		return nil
	case lSend:
		w.ops(s.ops)
		dst, err := w.intOf(s.x)
		if err != nil {
			return err
		}
		return w.send(dst, s.tag, 1)
	case lRecv:
		src, err := w.intOf(s.x)
		if err != nil {
			return err
		}
		if err := w.recv(src, s.tag, 1); err != nil {
			return err
		}
		w.setUnknown(s.slot)
		return nil
	case lSendBuf, lRecvBuf:
		peer, err := w.intOf(s.x)
		if err != nil {
			return err
		}
		lo, err := w.intOf(s.y)
		if err != nil {
			return err
		}
		hi, err := w.intOf(s.z)
		if err != nil {
			return err
		}
		if s.kind == lSendBuf {
			if hi < lo {
				return w.failf("block send of %s[%d..%d]", s.src.(*spmd.SendBuf).Buf, lo, hi)
			}
			return w.send(peer, s.tag, hi-lo+1)
		}
		if hi < lo {
			return w.failf("block receive into %s[%d..%d]", s.src.(*spmd.RecvBuf).Buf, lo, hi)
		}
		return w.recv(peer, s.tag, hi-lo+1)
	case lCoerce:
		return w.coerce(s)
	case lFor:
		lo, err := w.intOf(s.x)
		if err != nil {
			return err
		}
		hi, err := w.intOf(s.y)
		if err != nil {
			return err
		}
		step, err := w.intOf(s.z)
		if err != nil {
			return err
		}
		if step <= 0 {
			return w.failf("loop step %d", step)
		}
		for x := lo; x <= hi; x += step {
			w.loopStep()
			// The exact integer, not a float round-trip.
			w.fvals[s.slot], w.fknown[s.slot] = float64(x), true
			w.ivals[s.slot], w.iknown[s.slot] = x, true
			w.write(s.slot)
			if err := w.stmts(s.body); err != nil {
				return err
			}
		}
		return nil
	case lGuard:
		w.ops(1) // the mynode() test, charged on every process
		p, err := w.intOf(s.x)
		if err != nil {
			return err
		}
		if p == w.me {
			return w.stmts(s.body)
		}
		return nil
	case lIf:
		w.ops(s.ops)
		c, ok := w.evalV(s.val)
		if !ok {
			return w.failf("branch on a computed value")
		}
		if c != 0 {
			return w.stmts(s.body)
		}
		return w.stmts(s.els)
	default:
		return w.failf("unknown statement %T", s.src)
	}
}

// coerce mirrors exec.(*pstate).coerce: run-time resolution's value movement,
// with ownership tests charged as compute.
func (w *walker) coerce(s *lstmt) error {
	c := s.src.(*spmd.Coerce)
	w.ops(2) // owner/needer membership tests
	readSrc := func() {
		w.mem(1)
		if c.Array != "" {
			w.ops(indexCost)
		}
	}
	switch {
	case c.OwnerAll:
		if c.NeederAll {
			readSrc()
			w.setUnknown(s.slot)
			return nil
		}
		needer, err := w.intOf(s.y)
		if err != nil {
			return err
		}
		if needer == w.me {
			readSrc()
			w.setUnknown(s.slot)
		}
		return nil
	case c.NeederAll:
		owner, err := w.intOf(s.x)
		if err != nil {
			return err
		}
		if owner == w.me {
			readSrc()
			for q := int64(0); q < int64(w.procs); q++ {
				if q != w.me {
					if err := w.send(q, s.tag, 1); err != nil {
						return err
					}
				}
			}
		} else if err := w.recv(owner, s.tag, 1); err != nil {
			return err
		}
		w.setUnknown(s.slot)
		return nil
	default:
		owner, err := w.intOf(s.x)
		if err != nil {
			return err
		}
		needer, err := w.intOf(s.y)
		if err != nil {
			return err
		}
		switch {
		case owner == needer:
			if owner == w.me {
				readSrc()
				w.setUnknown(s.slot)
			}
		case owner == w.me:
			readSrc()
			return w.send(needer, s.tag, 1)
		case needer == w.me:
			if err := w.recv(owner, s.tag, 1); err != nil {
				return err
			}
			w.setUnknown(s.slot)
		}
		return nil
	}
}
