package expr

import (
	"math/bits"
	"slices"
)

// Compiled is an Expr lowered over integer slots: every free variable is
// replaced by the slot index the caller assigned it, so evaluation reads a
// []int64 instead of hashing names into an Env. Interpreters that evaluate
// the same expression many times (the static cost walker) compile once and
// evaluate the flat form.
type Compiled struct {
	code  []instr
	depth int   // operand-stack high-water mark
	slots []int // distinct slots read, ascending
}

// instr is one step of a Compiled program, a postfix walk of the canonical
// form: each (sub)expression computes its first term, folds in the others,
// then adds its constant. The top of the operand stack is a register.
type instr struct {
	op   uint8
	slot int32
	arg  int64
}

const (
	opConst    uint8 = iota // push arg
	opVar                   // push arg*vals[slot]; fails on an unknown slot
	opAddVar                // top += arg*vals[slot]; fails on an unknown slot
	opAddTop                // pop x; top += arg*x
	opAddConst              // top += arg
	opScale                 // top *= arg
	opMod                   // pop m, e; push e mod m; fails unless m > 0
	opDiv                   // pop m, e; push floor(e/m); fails if m == 0
	opMin                   // pop b, a; push min(a, b)
	opMax                   // pop b, a; push max(a, b)
	opMul                   // pop b, a; push a*b
	// Division and modulus by a constant K > 1 rewrite the top in place: a
	// power of two is a shift or a mask, anything else below 2^31 divides
	// by multiplying with the precomputed M = 2^64/K rounded up.
	opShr  // top = floor(top / 2^slot)
	opMask // top = top mod (arg+1), arg+1 a power of two
	opDivK // top = floor(top / slot), arg = M
	opModK // top = top mod slot, arg = M
)

// Compile lowers e over the slot numbering slot assigns to its free
// variables. The result evaluates to exactly what Eval returns under the
// matching environment, and fails exactly where Eval errors.
func (e Expr) Compile(slot func(string) int) Compiled {
	c := &compiler{slot: slot}
	c.expr(e)
	slices.Sort(c.out.slots)
	c.out.slots = slices.Compact(c.out.slots)
	return c.out
}

type compiler struct {
	slot func(string) int
	out  Compiled
	sp   int
}

func (c *compiler) emit(in instr, push int) {
	c.out.code = append(c.out.code, in)
	c.sp += push
	if c.sp > c.out.depth {
		c.out.depth = c.sp
	}
}

// expr pushes e's value. Two's-complement sums wrap the same in any order,
// so adding the constant last matches Eval bit for bit.
func (c *compiler) expr(e Expr) {
	if len(e.terms) == 0 {
		c.emit(instr{op: opConst, arg: e.c}, 1)
		return
	}
	for i, t := range e.terms {
		if v, ok := t.atom.(varAtom); ok {
			s := c.slot(string(v))
			c.out.slots = append(c.out.slots, s) // deduplicated once compiled
			if i == 0 {
				c.emit(instr{op: opVar, slot: int32(s), arg: t.coef}, 1)
			} else {
				c.emit(instr{op: opAddVar, slot: int32(s), arg: t.coef}, 0)
			}
			continue
		}
		c.atom(t.atom)
		switch {
		case i > 0:
			c.emit(instr{op: opAddTop, arg: t.coef}, -1)
		case t.coef != 1:
			c.emit(instr{op: opScale, arg: t.coef}, 0)
		}
	}
	if e.c != 0 {
		c.emit(instr{op: opAddConst, arg: e.c}, 0)
	}
}

// atom pushes the value of a non-variable atom.
func (c *compiler) atom(a atom) {
	var x, y Expr
	var op uint8
	switch a := a.(type) {
	case modAtom:
		x, y, op = a.e, a.m, opMod
	case divAtom:
		x, y, op = a.e, a.m, opDiv
	case minAtom:
		x, y, op = a.a, a.b, opMin
	case maxAtom:
		x, y, op = a.a, a.b, opMax
	case prodAtom:
		x, y, op = a.a, a.b, opMul
	default:
		panic("expr: Compile: unknown atom")
	}
	c.expr(x)
	if k, ok := y.ConstVal(); ok && k > 1 && (op == opDiv || op == opMod) {
		switch {
		case k&(k-1) == 0 && op == opDiv:
			c.emit(instr{op: opShr, slot: int32(bits.TrailingZeros64(uint64(k)))}, 0)
			return
		case k&(k-1) == 0:
			c.emit(instr{op: opMask, arg: k - 1}, 0)
			return
		case k < 1<<31 && op == opDiv:
			c.emit(instr{op: opDivK, slot: int32(k), arg: int64(^uint64(0)/uint64(k) + 1)}, 0)
			return
		case k < 1<<31:
			c.emit(instr{op: opModK, slot: int32(k), arg: int64(^uint64(0)/uint64(k) + 1)}, 0)
			return
		}
	}
	c.expr(y)
	c.emit(instr{op: op}, -1)
}

// Slots returns the distinct slots the expression reads, ascending. A
// caller caching a value may reuse it while none of these slots changes.
func (c *Compiled) Slots() []int { return c.slots }

// Eval evaluates the compiled expression: vals holds each slot's value and
// known reports which slots are bound. The second result is false exactly
// where Expr.Eval would return an error — an unbound variable, a modulus
// <= 0 or a zero divisor; re-run Expr.Eval for the message.
func (c *Compiled) Eval(vals []int64, known []bool) (int64, bool) {
	var buf [8]int64
	stk := buf[:] // the values below top
	if c.depth > len(buf) {
		stk = make([]int64, c.depth)
	}
	var top int64
	sp := 0
	for _, in := range c.code {
		switch in.op {
		case opConst:
			stk[sp], top = top, in.arg
			sp++
		case opVar:
			if !known[in.slot] {
				return 0, false
			}
			stk[sp], top = top, in.arg*vals[in.slot]
			sp++
		case opAddVar:
			if !known[in.slot] {
				return 0, false
			}
			top += in.arg * vals[in.slot]
		case opAddTop:
			sp--
			top = stk[sp] + in.arg*top
		case opAddConst:
			top += in.arg
		case opScale:
			top *= in.arg
		case opShr:
			top >>= uint(in.slot)
		case opMask:
			top &= in.arg
		case opDivK:
			// Lemire, Kaser and Kurz's direct computation is exact for
			// 32-bit operands; wider or negative ones divide.
			if uint64(top) < 1<<32 {
				q, _ := bits.Mul64(uint64(in.arg), uint64(top))
				top = int64(q)
			} else {
				top = floorDiv(top, int64(in.slot))
			}
		case opModK:
			if uint64(top) < 1<<32 {
				r, _ := bits.Mul64(uint64(in.arg)*uint64(top), uint64(in.slot))
				top = int64(r)
			} else {
				top = eucMod(top, int64(in.slot))
			}
		default:
			sp--
			a, b := stk[sp], top
			switch in.op {
			case opMod:
				if b <= 0 {
					return 0, false
				}
				top = eucMod(a, b)
			case opDiv:
				if b == 0 {
					return 0, false
				}
				top = floorDiv(a, b)
			case opMin:
				top = min(a, b)
			case opMax:
				top = max(a, b)
			case opMul:
				top = a * b
			}
		}
	}
	return top, true
}
