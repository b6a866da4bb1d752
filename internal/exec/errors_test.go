package exec

import (
	"testing"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/spmd"
)

// The interpreters' failure messages are part of their contract: pdrun and
// pdserve surface them verbatim. Each case runs on process 1 only (under a
// guard), so exactly one process fails and the message is deterministic.

func TestSPMDErrorMessages(t *testing.T) {
	on1 := func(body ...spmd.Stmt) []spmd.Stmt {
		return []spmd.Stmt{&spmd.Guard{Proc: expr.C(1), Body: body}}
	}
	for _, tc := range []struct {
		name string
		body []spmd.Stmt
		want string
	}{
		{"undefined variable",
			on1(&spmd.AssignVar{Name: "t", Val: spmd.VBin{Op: lang.OpAdd, L: spmd.VConst{F: 1}, R: spmd.VVar{Name: "nope"}}}),
			"machine: process 1 failed: process 1: undefined variable nope"},
		{"unbound loop bound",
			on1(&spmd.For{Var: "i", Lo: expr.C(1), Hi: expr.Add(expr.V("n"), expr.C(1)), Step: expr.C(1)}),
			"machine: process 1 failed: process 1: expr: unbound variable \"n\""},
		{"second I-var write",
			on1(&spmd.AssignIVar{Name: "x", Val: spmd.VConst{F: 1}}, &spmd.AssignIVar{Name: "x", Val: spmd.VConst{F: 2}}),
			"machine: process 1 failed: process 1: istruct: write of x: element already written"},
		{"buffer index out of range",
			on1(&spmd.AllocBuf{Buf: "b", Size: expr.C(2)},
				&spmd.BufWrite{Buf: "b", Idx: expr.C(3), Val: spmd.VConst{F: 1}}),
			"machine: process 1 failed: process 1: buffer b index 3 out of range [1,2]"},
		{"loop step not positive",
			on1(&spmd.For{Var: "i", Lo: expr.C(1), Hi: expr.C(3), Step: expr.Sub(expr.V(spmd.Me), expr.C(1))}),
			"machine: process 1 failed: process 1: loop step 0"},
		{"block receive length mismatch",
			[]spmd.Stmt{
				&spmd.AllocBuf{Buf: "b", Size: expr.C(4)},
				&spmd.Guard{Proc: expr.C(0), Body: []spmd.Stmt{
					&spmd.SendBuf{Dst: expr.C(1), Tag: 3, Buf: "b", Lo: expr.C(1), Hi: expr.C(2)},
				}},
				&spmd.Guard{Proc: expr.C(1), Body: []spmd.Stmt{
					&spmd.RecvBuf{Src: expr.C(0), Tag: 3, Buf: "b", Lo: expr.C(2), Hi: expr.C(4)},
				}},
			},
			"machine: process 1 failed: process 1: block receive of 2 values into b[2..4]"},
		{"coerce of undefined scalar",
			on1(&spmd.Coerce{Dst: "t", Var: "x", OwnerAll: true, NeederAll: true, Tag: 1}),
			"machine: process 1 failed: process 1: coerce of undefined scalar x"},
	} {
		_, err := RunSPMD([]*spmd.Program{prog(tc.body)}, cfg4(), nil)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestSequentialErrorMessages(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		args      []ArgVal
		want      string
	}{
		{"read of an undefined element", `
proc f(): real {
  let A = matrix(4, 4) on all;
  A[1, 1] = 1.0;
  return A[1, 1] + A[2, 3];
}
`, nil, "istruct: read of A[2 3]: element is undefined"},
		{"loop step not positive", `
proc f(s: int) {
  let A = vector(4) on all;
  for i = 1 to 3 by s {
    A[i] = 1.0;
  }
}
`, []ArgVal{{IsScal: true, Scalar: 0}}, "4:3: loop step must be positive, got 0"},
		{"division by zero", `
proc f(a: int): int {
  let b = a - a;
  return a + a div b;
}
`, []ArgVal{{IsScal: true, Scalar: 3}}, "4:16: division by zero"},
	} {
		info := checked(t, tc.src, 2, nil)
		_, err := RunSequential(info, "f", tc.args)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
