package bench

import (
	"fmt"
	"testing"

	"procdecomp/internal/analysis"
	"procdecomp/internal/faults"
	"procdecomp/internal/machine"
)

// The analyzer's headline invariant, checked across the whole Fig. 6 matrix:
// the extracted critical path must sum exactly to the measured makespan — on
// one processor, on many, and under an unreliable network — and the per-cause
// attribution must tile the path. (The chaos runs keep "Faults" out of the
// test name so the CI chaos job does not re-run this heavyweight sweep.)
func TestCriticalPathExactFig6(t *testing.T) {
	const n, blk = 32, 4
	for _, v := range []Variant{RunTime, CompileTime, OptimizedI, OptimizedIII, Handwritten} {
		for _, procs := range []int{1, 4, 32} {
			for _, chaos := range []bool{false, true} {
				label := v.String()
				cfg := machine.DefaultConfig(procs)
				if chaos {
					cfg.Faults = faults.Chaos(1, 0.05)
					label += "+chaos"
				}
				stats, d, err := DumpGS(cfg, v, n, blk)
				if err != nil {
					t.Fatalf("%s S=%d: %v", label, procs, err)
				}
				if d.Faulty != chaos {
					t.Errorf("%s S=%d: dump Faulty=%v", label, procs, d.Faulty)
				}
				cp, err := d.CriticalPath()
				if err != nil {
					t.Fatalf("%s S=%d: %v", label, procs, err)
				}
				if cp.Makespan != stats.Makespan {
					t.Errorf("%s S=%d: trace makespan %d != machine %d", label, procs, cp.Makespan, stats.Makespan)
				}
				if got := cp.Len(); got != cp.Makespan {
					t.Errorf("%s S=%d: critical path %d != makespan %d", label, procs, got, cp.Makespan)
				}
				if got := cp.Attr.Total(); got != cp.Makespan {
					t.Errorf("%s S=%d: attribution %d != makespan %d", label, procs, got, cp.Makespan)
				}
				if chaos && procs > 1 && cp.Attr.Fault == 0 && stats.Retries > 0 {
					// Retries happened somewhere; they need not sit on the
					// critical path, but the common case is that some do.
					t.Logf("%s S=%d: %d retries, none on the critical path", label, procs, stats.Retries)
				}
				if !chaos && cp.Attr.Fault != 0 {
					t.Errorf("%s S=%d: fault cycles %d on a reliable network", label, procs, cp.Attr.Fault)
				}
			}
		}
	}
}

// The identity replay must reproduce the measured makespan exactly even on
// the hardest paths: multiplexed placement, with and without an unreliable
// network. Under Placement a receive whose message arrives late records
// idle → blocked → recv — the node-CPU wait comes after the arrival — and
// the shapes below are ones where replaying that wait before the arrival
// under-predicted (processes placed cyclically on the nodes).
func TestWhatIfIdentityMuxChaos(t *testing.T) {
	for _, tc := range []struct {
		v            Variant
		n, blk       int64
		nodes, procs int
		chaos        bool
	}{
		{OptimizedIII, 24, 4, 4, 8, true},
		{OptimizedIII, 16, 2, 4, 16, false},
		{OptimizedIII, 16, 2, 4, 16, true},
		{OptimizedIII, 16, 2, 4, 8, false},
		{OptimizedIII, 16, 2, 4, 8, true},
		{OptimizedIII, 32, 2, 4, 8, false},
		{OptimizedIII, 32, 8, 4, 16, false},
		{OptimizedIII, 32, 8, 4, 16, true},
		{OptimizedIII, 64, 8, 2, 8, false},
		{OptimizedIII, 64, 8, 2, 8, true},
		{CompileTime, 32, 8, 4, 16, false},
		{CompileTime, 32, 8, 4, 16, true},
	} {
		mode := map[Variant]string{OptimizedIII: "opt3", CompileTime: "ctr"}[tc.v]
		name := fmt.Sprintf("%s/N%d/blk%d/%don%d/chaos=%v", mode, tc.n, tc.blk, tc.procs, tc.nodes, tc.chaos)
		t.Run(name, func(t *testing.T) {
			cfg := machine.DefaultConfig(tc.procs)
			cfg.Placement = make([]int, tc.procs)
			for p := range cfg.Placement {
				cfg.Placement[p] = p % tc.nodes
			}
			if tc.chaos {
				cfg.Faults = faults.Chaos(3, 0.05)
			}
			stats, d, err := DumpGS(cfg, tc.v, tc.n, tc.blk)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Predict(analysis.Scenario{})
			if err != nil {
				t.Fatal(err)
			}
			if got != stats.Makespan {
				t.Fatalf("identity replay %d != measured %d", got, stats.Makespan)
			}
		})
	}
}

// What-if sanity on the paper's startup-dominated variant. Zeroing the send
// startup must shorten the recorded critical path by exactly its send-startup
// share — but the *makespan* can drop by less, because once sends are free a
// different (recv-heavy) chain becomes binding. So the test asserts the
// strongest true properties instead of a chain-shift-blind inequality:
// the prediction must equal an actual machine rerun at SendStartup=0
// (the replay is exact, not an estimate), startup must dominate Optimized I's
// attribution, and the predicted speedup must be material.
func TestWhatIfSendStartupOptimizedI(t *testing.T) {
	const n, blk, procs = 32, 4, 4
	stats, d, err := DumpGS(machine.DefaultConfig(procs), OptimizedI, n, blk)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := d.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	startup := cp.Attr.SendStartup + cp.Attr.RecvStartup
	if 2*startup < cp.Makespan {
		t.Errorf("Optimized I startup share %d is under half the makespan %d; expected startup-dominated", startup, cp.Makespan)
	}
	pred, err := d.Predict(analysis.Scenario{SendStartup: analysis.Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if pred >= stats.Makespan {
		t.Errorf("SendStartup=0 predicts %d, no better than measured %d", pred, stats.Makespan)
	}
	if 2*pred > stats.Makespan {
		t.Errorf("SendStartup=0 predicts %d; want at least a 2x drop from %d for the startup-bound variant", pred, stats.Makespan)
	}
	// Ground truth: rerun the machine with the altered calibration. The
	// workload's message structure is cost-independent, so the replay must
	// agree exactly.
	cfg := machine.DefaultConfig(procs)
	cfg.SendStartup = 0
	pt, err := RunGSWith(cfg, OptimizedI, n, blk)
	if err != nil {
		t.Fatal(err)
	}
	if pred != pt.Makespan {
		t.Errorf("replay predicts %d, actual rerun at SendStartup=0 measures %d", pred, pt.Makespan)
	}
}

// Figure6JSON emits one record per (variant, procs) cell with an attribution
// that tiles the makespan, plus a free-communication ceiling no worse than
// the measured time.
func TestFigure6JSONRecords(t *testing.T) {
	recs, err := Figure6JSON(24, []int{1, 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("%d records, want 10 (5 variants x 2 sizes)", len(recs))
	}
	for _, r := range recs {
		if r.Attribution.Total() != r.Makespan {
			t.Errorf("%s S=%d: attribution %d != makespan %d", r.Variant, r.Procs, r.Attribution.Total(), r.Makespan)
		}
		if r.PredictedFreeComm > r.Makespan {
			t.Errorf("%s S=%d: free-comm prediction %d exceeds measured %d", r.Variant, r.Procs, r.PredictedFreeComm, r.Makespan)
		}
		if r.Utilization <= 0 || r.Utilization > 1 {
			t.Errorf("%s S=%d: utilization %v", r.Variant, r.Procs, r.Utilization)
		}
	}
}

// The attribution table renders one row per variant.
func TestAttributionTable(t *testing.T) {
	s, err := AttributionTable(24, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(s.Rows))
	}
}
