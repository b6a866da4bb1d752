package autotune

import (
	"fmt"

	"procdecomp/internal/exec"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// The static cost model: an abstract walk of each process's compiled program
// that charges what the interpreter (internal/exec) charges without computing
// any data values. Control flow — loop bounds, guards, message endpoints — is
// evaluated over the integer environment exactly as the interpreter would;
// data values are tracked as "unknown" and only become an error if control
// flow ever depends on one (ErrUnmodeled, the fallback-to-measurement
// signal).
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
// The walker never interprets the spmd tree directly. It runs over the
// interpreter's own lowering (exec.Lower): every variable name is an integer
// slot, every integer expression is compiled over those slots
// (expr.Compile), and every statement carries its precomputed operation
// charge, so the charge table exists once, in exec. The run-time resolution
// program is generic, so it is lowered once and shared by all S walkers;
// each walker keeps only its own slot values. Evaluation stays at the
// program point the interpreter evaluates at, so control flow, charges and
// error order are the interpreter's. Two devices keep it cheap and exact:
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
	pick := func(p int) *exec.Lowered { return exec.Lower(progs[p]) }
	switch {
	case len(progs) == 1 && progs[0].Proc < 0:
		generic := exec.Lower(progs[0])
		pick = func(int) *exec.Lowered { return generic }
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
		if err := w.stmts(w.prog.Body); err != nil {
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

// walker is the per-process abstract interpreter over a lowered program.
type walker struct {
	me    int64
	procs int
	cfg   machine.Config
	prog  *exec.Lowered
	// Per slot: the integer view (me, loop variables, known assignments)
	// and the known data value. They change together, except that me has
	// an integer value but no data value.
	ivals  []int64
	iknown []bool
	fvals  []float64
	fknown []bool
	stamp  []uint64 // clock of the slot's last write
	clock  uint64
	memo   []memo // by exec.LExpr.ID
	acts   []action
	acc    uint64 // pending compute cycles, flushed before sends/receives
}

// memo is an expression's last successful value and the clock it was
// computed at (0 = never).
type memo struct {
	val int64
	at  uint64
}

func newWalker(me int, cfg machine.Config, prog *exec.Lowered) *walker {
	n := len(prog.Names)
	w := &walker{me: int64(me), procs: cfg.Procs, cfg: cfg, prog: prog,
		ivals: make([]int64, n), iknown: make([]bool, n),
		fvals: make([]float64, n), fknown: make([]bool, n),
		stamp: make([]uint64, n), clock: 1, memo: make([]memo, prog.Exprs)}
	w.ivals[exec.MeSlot], w.iknown[exec.MeSlot] = int64(me), true
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
func (w *walker) eval(x *exec.LExpr) (int64, bool) {
	if x.ID < 0 {
		return x.Val, true
	}
	m := &w.memo[x.ID]
	if m.at != 0 {
		fresh := true
		for _, s := range x.Code.Slots() {
			if w.stamp[s] > m.at {
				fresh = false
				break
			}
		}
		if fresh {
			return m.val, true
		}
	}
	v, ok := x.Code.Eval(w.ivals, w.iknown)
	if ok {
		*m = memo{val: v, at: w.clock}
	}
	return v, ok
}

// intOf evaluates a control expression. On failure it re-runs the source
// expression's Eval over the known slots for the exact error.
func (w *walker) intOf(x *exec.LExpr) (int64, error) {
	if v, ok := w.eval(x); ok {
		return v, nil
	}
	v, err := x.Src.Eval(w.prog.Env(w.ivals, w.iknown))
	if err != nil {
		return 0, w.failf("%v", err)
	}
	return v, nil
}

// evalV evaluates a value expression if every input is statically known.
func (w *walker) evalV(v *exec.LVal) (float64, bool) {
	switch v.Kind {
	case exec.ValConst:
		return v.F, true
	case exec.ValVar:
		return w.fvals[v.Slot], w.fknown[v.Slot]
	case exec.ValInt:
		i, ok := w.eval(v.X)
		return float64(i), ok
	case exec.ValBin:
		l, ok := w.evalV(v.L)
		if !ok {
			return 0, false
		}
		r, ok := w.evalV(v.R)
		if !ok {
			return 0, false
		}
		bad := false
		res := exec.EvalBin(v.Op, l, r, func(string) { bad = true })
		return res, !bad
	case exec.ValUn:
		x, ok := w.evalV(v.L)
		if !ok {
			return 0, false
		}
		if v.Op == lang.OpNeg {
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

func (w *walker) stmts(body []exec.LStmt) error {
	for i := range body {
		if err := w.stmt(&body[i]); err != nil {
			return err
		}
	}
	return nil
}

// stmt charges what exec.(*pstate).stmt charges, from the same lowering.
func (w *walker) stmt(s *exec.LStmt) error {
	switch s.Kind {
	case exec.LAlloc, exec.LAllocBuf:
		return nil // allocation is uncharged
	case exec.LAssignVar, exec.LAssignIVar:
		w.ops(s.Ops)
		if v, ok := w.evalV(s.Val); ok {
			w.setVar(s.Dst, v)
		} else {
			w.setUnknown(s.Dst)
		}
		return nil
	case exec.LARead, exec.LAWrite, exec.LBufRead, exec.LBufWrite:
		w.ops(s.Ops)
		w.mem(1)
		if s.Dst >= 0 {
			w.setUnknown(s.Dst) // array and buffer contents are data
		}
		return nil
	case exec.LSend:
		w.ops(s.Ops)
		dst, err := w.intOf(s.X)
		if err != nil {
			return err
		}
		return w.send(dst, s.Tag, 1)
	case exec.LRecv:
		src, err := w.intOf(s.X)
		if err != nil {
			return err
		}
		if err := w.recv(src, s.Tag, 1); err != nil {
			return err
		}
		w.setUnknown(s.Dst)
		return nil
	case exec.LSendBuf, exec.LRecvBuf:
		peer, err := w.intOf(s.X)
		if err != nil {
			return err
		}
		lo, err := w.intOf(s.Y)
		if err != nil {
			return err
		}
		hi, err := w.intOf(s.Z)
		if err != nil {
			return err
		}
		if s.Kind == exec.LSendBuf {
			if hi < lo {
				return w.failf("block send of %s[%d..%d]", w.prog.Bufs[s.Ref], lo, hi)
			}
			return w.send(peer, s.Tag, hi-lo+1)
		}
		if hi < lo {
			return w.failf("block receive into %s[%d..%d]", w.prog.Bufs[s.Ref], lo, hi)
		}
		return w.recv(peer, s.Tag, hi-lo+1)
	case exec.LCoerce:
		return w.coerce(s)
	case exec.LFor:
		lo, err := w.intOf(s.X)
		if err != nil {
			return err
		}
		hi, err := w.intOf(s.Y)
		if err != nil {
			return err
		}
		step, err := w.intOf(s.Z)
		if err != nil {
			return err
		}
		if step <= 0 {
			return w.failf("loop step %d", step)
		}
		for x := lo; x <= hi; x += step {
			w.loopStep()
			// The exact integer, not a float round-trip.
			w.fvals[s.Dst], w.fknown[s.Dst] = float64(x), true
			w.ivals[s.Dst], w.iknown[s.Dst] = x, true
			w.write(s.Dst)
			if err := w.stmts(s.Body); err != nil {
				return err
			}
		}
		return nil
	case exec.LGuard:
		w.ops(s.Ops) // the mynode() test, charged on every process
		p, err := w.intOf(s.X)
		if err != nil {
			return err
		}
		if p == w.me {
			return w.stmts(s.Body)
		}
		return nil
	case exec.LIf:
		w.ops(s.Ops)
		c, ok := w.evalV(s.Val)
		if !ok {
			return w.failf("branch on a computed value")
		}
		if c != 0 {
			return w.stmts(s.Body)
		}
		return w.stmts(s.Else)
	default:
		return w.failf("unknown statement %T", s.Src)
	}
}

// coerce mirrors exec.(*pstate).coerce: run-time resolution's value movement,
// with ownership tests charged as compute.
func (w *walker) coerce(s *exec.LStmt) error {
	c := s.Src.(*spmd.Coerce)
	w.ops(s.Ops) // owner/needer membership tests
	readSrc := func() {
		w.mem(1)
		if c.Array != "" {
			w.ops(exec.IndexCost)
		}
	}
	switch {
	case c.OwnerAll:
		if c.NeederAll {
			readSrc()
			w.setUnknown(s.Dst)
			return nil
		}
		needer, err := w.intOf(s.Y)
		if err != nil {
			return err
		}
		if needer == w.me {
			readSrc()
			w.setUnknown(s.Dst)
		}
		return nil
	case c.NeederAll:
		owner, err := w.intOf(s.X)
		if err != nil {
			return err
		}
		if owner == w.me {
			readSrc()
			for q := int64(0); q < int64(w.procs); q++ {
				if q != w.me {
					if err := w.send(q, s.Tag, 1); err != nil {
						return err
					}
				}
			}
		} else if err := w.recv(owner, s.Tag, 1); err != nil {
			return err
		}
		w.setUnknown(s.Dst)
		return nil
	default:
		owner, err := w.intOf(s.X)
		if err != nil {
			return err
		}
		needer, err := w.intOf(s.Y)
		if err != nil {
			return err
		}
		switch {
		case owner == needer:
			if owner == w.me {
				readSrc()
				w.setUnknown(s.Dst)
			}
		case owner == w.me:
			readSrc()
			return w.send(needer, s.Tag, 1)
		case needer == w.me:
			if err := w.recv(owner, s.Tag, 1); err != nil {
				return err
			}
			w.setUnknown(s.Dst)
		}
		return nil
	}
}
