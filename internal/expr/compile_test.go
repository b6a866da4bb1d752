package expr

import "testing"

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next() byte {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return f.b[f.i-1]
}

var fuzzVars = []string{"a", "b", "c", "me"}

// genExpr builds an expression through the public constructors, so the
// canonical forms under test are the ones the compiler produces.
func genExpr(f *fuzzBytes, depth int) Expr {
	op := f.next() % 9
	if depth == 0 {
		op %= 2
	}
	if op == 0 {
		return C(int64(int8(f.next())))
	}
	if op == 1 {
		return V(fuzzVars[f.next()%byte(len(fuzzVars))])
	}
	l, r := genExpr(f, depth-1), genExpr(f, depth-1)
	switch op {
	case 2:
		return Add(l, r)
	case 3:
		return Sub(l, r)
	case 4:
		return Mul(l, r)
	case 5:
		return Div(l, r)
	case 6:
		return Mod(l, r)
	case 7:
		return Min(l, r)
	default:
		return Max(l, r)
	}
}

// FuzzCompileMatchesEval: a compiled expression evaluates to exactly what
// Eval returns, and fails exactly where Eval errors (unbound variables,
// moduli <= 0, zero divisors).
func FuzzCompileMatchesEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x06, 0x01, 0x00, 0x00, 0x03, 0x04, 0x00, 0x02, 0x7f, 0x80})
	f.Add([]byte{0x02, 0x05, 0x06, 0x01, 0x01, 0x00, 0x00, 0x01, 0x03, 0x00, 0xfd, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		unbound := in.next()
		env := Env{}
		vals := make([]int64, len(fuzzVars))
		known := make([]bool, len(fuzzVars))
		for i, name := range fuzzVars {
			v := int64(int8(in.next()))
			if in.next()%4 == 0 {
				v <<= 40 // large enough to wrap products
			}
			vals[i] = v
			if unbound&(1<<i) == 0 {
				known[i] = true
				env[name] = v
			}
		}
		e := genExpr(in, 4)
		slot := func(name string) int {
			for i, n := range fuzzVars {
				if n == name {
					return i
				}
			}
			t.Fatalf("unexpected variable %q", name)
			return -1
		}
		c := e.Compile(slot)
		for _, s := range c.Slots() {
			if !e.HasVar(fuzzVars[s]) {
				t.Fatalf("%v: slot %d (%s) is not a free variable", e, s, fuzzVars[s])
			}
		}
		if len(c.Slots()) != len(e.Vars()) {
			t.Fatalf("%v: slots %v, free variables %v", e, c.Slots(), e.Vars())
		}
		want, err := e.Eval(env)
		got, ok := c.Eval(vals, known)
		if ok != (err == nil) {
			t.Fatalf("%v under %v: compiled ok=%v, Eval error %v", e, env, ok, err)
		}
		if ok && got != want {
			t.Fatalf("%v under %v: compiled %d, Eval %d", e, env, got, want)
		}
	})
}

// Division and modulus by a constant compile to shifts, masks and
// multiplications; they must agree with Eval on every operand, including
// the 32-bit boundary where the multiplication hands over to division.
func TestCompileConstantDivisors(t *testing.T) {
	divisors := []int64{2, 3, 5, 6, 7, 12, 48, 641, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 1 << 62, 3 << 40}
	for k := int64(2); k <= 300; k++ {
		divisors = append(divisors, k)
	}
	var operands []int64
	for _, base := range []int64{0, 1 << 31, 1 << 32, 1 << 33, 1 << 62, -1 << 31, -1 << 32} {
		for d := int64(-3); d <= 3; d++ {
			operands = append(operands, base+d)
		}
	}
	operands = append(operands, 1<<63-1, -1<<63, 1<<63-2, -1<<63+1, 4294967295, 123456789)
	slot := func(string) int { return 0 }
	for _, k := range divisors {
		for _, op := range []func(Expr, Expr) Expr{Div, Mod} {
			e := op(V("a"), C(k))
			c := e.Compile(slot)
			for _, a := range append(operands, k-1, k, k+1, 7*k-1, 7*k, -k, -k-1) {
				want, err := e.Eval(Env{"a": a})
				got, ok := c.Eval([]int64{a}, []bool{true})
				if !ok || err != nil || got != want {
					t.Fatalf("%v at a=%d: compiled %d (ok=%v), Eval %d (%v)", e, a, got, ok, want, err)
				}
			}
		}
	}
}

// An expression nested deeper than the evaluator's fixed operand buffer
// spills to the heap and still agrees with Eval.
func TestCompileDeepExpression(t *testing.T) {
	e := V("a")
	for i := 0; i < 12; i++ {
		e = Mod(V("b"), Add(e, C(int64(i+2))))
	}
	env := Env{"a": 5, "b": 1000003}
	c := e.Compile(func(name string) int { return int(name[0] - 'a') })
	if c.depth <= 8 {
		t.Fatalf("depth %d does not exceed the fixed buffer", c.depth)
	}
	want, err := e.Eval(env)
	got, ok := c.Eval([]int64{5, 1000003}, []bool{true, true})
	if err != nil || !ok || got != want {
		t.Fatalf("compiled %d (ok=%v), Eval %d (%v)", got, ok, want, err)
	}
	if _, ok := c.Eval([]int64{5, 1000003}, []bool{false, true}); ok {
		t.Fatal("compiled evaluation succeeded with a unbound")
	}
}
