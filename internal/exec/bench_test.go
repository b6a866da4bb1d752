package exec_test

import (
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/machine"
	"procdecomp/internal/sem"
)

// BenchmarkRunSPMD times one distributed Gauss-Seidel sweep (N=64, S=8)
// under run-time and compile-time resolution: lowering, scatter, the
// interpreter on the simulated machine, and gather.
func BenchmarkRunSPMD(b *testing.B) {
	const procs, n = 8, 64
	for _, tc := range []struct {
		name string
		v    bench.Variant
	}{{"rtr", bench.RunTime}, {"ctr", bench.CompileTime}} {
		b.Run(tc.name, func(b *testing.B) {
			progs, err := bench.CompileGS(tc.v, procs, n, bench.DefaultBlk)
			if err != nil {
				b.Fatal(err)
			}
			inputs := map[string]*istruct.Matrix{"Old": bench.Input(n)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.RunSPMD(progs, machine.DefaultConfig(procs), inputs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunSequential times the sequential reference on the same sweep.
func BenchmarkRunSequential(b *testing.B) {
	const n = 64
	prog, err := lang.Parse(bench.GSSource)
	if err != nil {
		b.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: 8, Defines: map[string]int64{"N": n}})
	if len(errs) > 0 {
		b.Fatal(errs[0])
	}
	args := []exec.ArgVal{{Matrix: bench.Input(n)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.RunSequential(info, "gs_iteration", args); err != nil {
			b.Fatal(err)
		}
	}
}
