package autotune

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// The walker falls back to re-running expr.Eval over the known variables
// whenever a compiled expression fails, so an unmodelable program reports
// exactly the reason the name-keyed evaluation gives. The strings below pin
// those reasons.
func TestUnmodeledReasons(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		body  []spmd.Stmt
		want  string
	}{
		{
			name:  "branch on a received value",
			procs: 2,
			body: []spmd.Stmt{
				&spmd.Recv{Src: expr.Sub(expr.C(1), spmd.MeExpr()), Tag: 1, Dst: "x"},
				&spmd.IfValue{Cond: spmd.VVar{Name: "x"}, Then: []spmd.Stmt{
					&spmd.Send{Dst: expr.C(0), Tag: 2, Val: spmd.VConst{F: 1}},
				}},
			},
			want: "autotune: process 0 not statically modelable: branch on a computed value",
		},
		{
			name:  "loop bound over an unassigned variable",
			procs: 3,
			body: []spmd.Stmt{
				&spmd.AssignVar{Name: "k", Val: spmd.VConst{F: 4}},
				&spmd.Guard{Proc: expr.C(1), Body: []spmd.Stmt{
					&spmd.For{Var: "i", Lo: expr.C(1), Hi: expr.Add(expr.V("n"), expr.V("k")), Step: expr.C(1)},
				}},
			},
			want: `autotune: process 1 not statically modelable: expr: unbound variable "n"`,
		},
		{
			name:  "zero divisor in an owner expression",
			procs: 2,
			body: []spmd.Stmt{
				&spmd.AssignIVar{Name: "k", Val: spmd.VConst{F: 0}},
				&spmd.For{Var: "j", Lo: expr.C(1), Hi: expr.C(3), Step: expr.C(1), Body: []spmd.Stmt{
					&spmd.Coerce{Dst: "t", Var: "x",
						Owner: expr.Div(expr.V("j"), expr.V("k")), Needer: spmd.MeExpr(), Tag: 3},
				}},
			},
			want: "autotune: process 0 not statically modelable: expr: division by zero",
		},
		{
			name:  "zero modulus in a needer expression",
			procs: 2,
			body: []spmd.Stmt{
				&spmd.AssignIVar{Name: "k", Val: spmd.VConst{F: 2}},
				&spmd.For{Var: "j", Lo: expr.C(0), Hi: expr.C(1), Step: expr.C(1), Body: []spmd.Stmt{
					&spmd.AssignIVar{Name: "k", Val: spmd.VBin{Op: lang.OpAdd, L: spmd.VVar{Name: "k"}, R: spmd.VConst{F: -1}}},
					&spmd.Coerce{Dst: "t", Var: "x", OwnerAll: true,
						Needer: expr.Mod(expr.V("j"), expr.V("k")), Tag: 4},
				}},
			},
			want: "autotune: process 0 not statically modelable: expr: mod by non-positive 0",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := &spmd.Program{Name: "hand", Proc: -1, Body: tc.body}
			_, err := BuildProfile([]*spmd.Program{prog}, machine.DefaultConfig(tc.procs))
			var um *ErrUnmodeled
			if !errors.As(err, &um) {
				t.Fatalf("got %v, want ErrUnmodeled", err)
			}
			if err.Error() != tc.want {
				t.Errorf("got  %q\nwant %q", err.Error(), tc.want)
			}
		})
	}
}

// corpusWorkload loads one of the repo benchmark's corpus programs.
func corpusWorkload(t testing.TB, name, entry, dist string, n int64) *Workload {
	src, err := os.ReadFile("../../perfbench/corpus/" + name + ".idn")
	if err != nil {
		t.Fatal(err)
	}
	return &Workload{Name: name, Source: string(src), Entry: entry, Dist: dist,
		Defines: map[string]int64{"N": n}}
}

// The model gate over the whole search space: for every candidate the
// search can enumerate, the walked profile's DAG replay predicts the
// machine's makespan exactly and counts the same messages and values.
func TestModelGateWholeSpace(t *testing.T) {
	const n = 16
	wls := []*Workload{
		gsWorkload(n),
		{Name: "gs_rev", Source: bench.GSReversedSource, Entry: "gs_iteration", Dist: "Column",
			Defines: map[string]int64{"N": n}},
		corpusWorkload(t, "jacobi", "jacobi", "D", n),
		corpusWorkload(t, "tri", "tri", "D", n),
	}
	for _, w := range wls {
		for _, procs := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/S%d", w.Name, procs), func(t *testing.T) {
				cfg := machine.DefaultConfig(procs)
				modeled := 0
				for _, c := range (Space{}).Enumerate(procs) {
					progs, _, err := w.compile(c, procs)
					if err != nil {
						if _, merr := Measure(w, c, cfg); merr == nil {
							t.Errorf("%s: compile fails (%v) but Measure succeeds", c.Key(), err)
						}
						continue
					}
					pf, err := BuildProfile(progs, cfg)
					if err != nil {
						t.Errorf("%s: walk: %v", c.Key(), err)
						continue
					}
					pred, err := pf.Predict(cfg)
					if err != nil {
						t.Errorf("%s: replay: %v", c.Key(), err)
						continue
					}
					m, err := Measure(w, c, cfg)
					if err != nil {
						t.Errorf("%s: measure: %v", c.Key(), err)
						continue
					}
					if pred != m.Makespan {
						t.Errorf("%s: predicted %d, measured %d", c.Key(), pred, m.Makespan)
					}
					if pf.Messages != m.Messages || pf.Values != m.Values {
						t.Errorf("%s: modeled %d messages/%d values, machine %d/%d",
							c.Key(), pf.Messages, pf.Values, m.Messages, m.Values)
					}
					modeled++
				}
				if modeled == 0 {
					t.Fatal("no candidate was modeled")
				}
			})
		}
	}
}

// BenchmarkBuildProfile walks the whole Gauss-Seidel search space at N=64 on
// eight processors: one iteration is one tier-1 pass, compilation excluded.
func BenchmarkBuildProfile(b *testing.B) {
	const procs = 8
	w := gsWorkload(64)
	cfg := machine.DefaultConfig(procs)
	var space [][]*spmd.Program
	for _, c := range (Space{}).Enumerate(procs) {
		if progs, _, err := w.compile(c, procs); err == nil {
			space = append(space, progs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, progs := range space {
			if _, err := BuildProfile(progs, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(space)), "candidates")
}
