package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The self-test runs every workload at its smallest size and checks what the
// benchmark promises: every metric appears with its unit, equal seeds repeat
// the exact values, and a perturbed expectation is caught.

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func tinyRun(t *testing.T, workload string, trace, perturb bool, out string) (resultLine, int) {
	t.Helper()
	var buf bytes.Buffer
	cfg := &config{workload: workload, seed: 7, seconds: 1, trace: trace, outDir: out,
		tiny: true, perturb: perturb, log: &buf}
	code := run(cfg)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, buf.String())
	}
	return r, code
}

func TestEveryMetricWithItsUnit(t *testing.T) {
	for _, w := range []string{"figures", "search", "serve"} {
		for _, trace := range []bool{false, true} {
			r, code := tinyRun(t, w, trace, false, t.TempDir())
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, correct=%v, %d/%d failed", w, trace, code, r.Correct, r.Failed, r.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s has unit %q, want %q", w, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestPerturbedExpectationFails is the negative control: with one expected
// value corrupted, each workload must report a failure.
func TestPerturbedExpectationFails(t *testing.T) {
	for _, w := range []string{"figures", "search", "serve"} {
		r, code := tinyRun(t, w, false, true, t.TempDir())
		if r.Failed == 0 || r.Correct || code == 0 {
			t.Errorf("%s: perturbed run reported correct=%v, %d failed, exit %d", w, r.Correct, r.Failed, code)
		}
	}
}

func TestDeterminismGuard(t *testing.T) {
	out := t.TempDir()
	if _, code := tinyRun(t, "figures", false, false, out); code != 0 {
		t.Fatalf("first run exit %d", code)
	}
	if _, code := tinyRun(t, "figures", false, false, out); code != 0 {
		t.Fatalf("second run with the same seed exit %d: exact values did not repeat", code)
	}
	recs, err := filepath.Glob(filepath.Join(out, "determinism", "*.json"))
	if err != nil || len(recs) != 1 {
		t.Fatalf("determinism records: %v %v", recs, err)
	}
	// A record that disagrees with the code must stop the run.
	if err := os.WriteFile(recs[0], []byte(`{"sim_cycles_geomean": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, code := tinyRun(t, "figures", false, false, out); code == 0 {
		t.Fatal("a run disagreeing with the recorded exact values exited 0")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		Workloads []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the code %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}
