// Command perfbench is the procdecomp benchmark. It runs one workload —
// figures, search or serve — for a fixed time on inputs generated from a
// seed, checks every output, and prints a human-readable report followed by
// one JSON result line:
//
//	perfbench --workload figures --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run, whose spans are written
// to the output directory. perfbench/run.py builds the binary and runs it.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// metricDef is one reported metric; the same names, units and directions
// are listed in BENCHMARK.json.
type metricDef struct {
	name, unit, better string
}

// endToEnd holds the metrics a user of each workload sees, the ones a
// change is held to. Every workload reports every one; METRICS.md gives the
// per-workload meaning. Times are process CPU time, which leaves out the
// time a shared host steals from the machine; the wall-clock rates and
// latencies are in the traced run's ledger (wall.*).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"sim_cycles_geomean", "cycles", "lower"},
	{"alloc_mb_per_op", "MiB/op", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer holds the traced run's metrics, one group per layer. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"wall.ops_per_s", "1/s", "higher"},
	{"wall.op_p50_ms", "ms", "lower"},
	{"wall.op_tail_ms", "ms", "lower"},
	{"lang.parse_ms", "ms", "lower"},
	{"sem.check_ms", "ms", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"xform.apply_ms", "ms", "lower"},
	{"core.ir_stmts", "count", "lower"},
	{"xform.ir_stmts", "count", "lower"},
	{"xform.applied", "count", "higher"},
	{"exec.spmd_ms", "ms", "lower"},
	{"exec.spmd_allocs", "count", "lower"},
	{"exec.seq_ms", "ms", "lower"},
	{"bench.check_ms", "ms", "lower"},
	{"machine.msgs_per_host_s", "msg/s", "higher"},
	{"machine.allocs_per_msg", "allocs/msg", "lower"},
	{"machine.messages", "count", "lower"},
	{"machine.values", "count", "lower"},
	{"trace.events", "count", "lower"},
	{"analysis.analyze_ms", "ms", "lower"},
	{"autotune.anchor_ms", "ms", "lower"},
	{"autotune.static_ms", "ms", "lower"},
	{"autotune.replay_ms", "ms", "lower"},
	{"autotune.measure_ms", "ms", "lower"},
	{"autotune.compile_ms_per_candidate", "ms", "lower"},
	{"autotune.walk_ms_per_candidate", "ms", "lower"},
	{"autotune.enumerated", "count", "lower"},
	{"autotune.infeasible", "count", "lower"},
	{"autotune.pruned", "count", "higher"},
	{"autotune.replayed", "count", "lower"},
	{"autotune.measured", "count", "lower"},
	{"autotune.prune_ratio", "ratio", "higher"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.worker_busy_s", "s", "lower"},
	{"serve.sheds", "count", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.hit_ratio", "ratio", "higher"},
	{"serve.cache_writes", "count", "lower"},
	{"serve.cache_bytes", "bytes", "lower"},
	{"serve.journal_appends", "count", "lower"},
	{"serve.journal_fsync_ms", "ms", "lower"},
	{"serve.hit_p50_ms", "ms", "lower"},
	{"serve.hit_p99_ms", "ms", "lower"},
	{"serve.miss_p50_ms", "ms", "lower"},
	{"serve.miss_p95_ms", "ms", "lower"},
	{"serve.job_p50_ms", "ms", "lower"},
	{"bench.gen_lag_p99_ms", "ms", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // spans and determinism records
	tiny     bool   // smallest sizes, for the self-test
	// perturb corrupts one expected value, the negative control that
	// proves the output checks can fail.
	perturb bool
	log     io.Writer // the report and the result line
}

// result is what a workload hands back.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// exact holds the values that must repeat exactly for equal seeds.
	exact    map[string]float64
	failures []string
	spans    *tracer
}

func newResult() *result {
	r := &result{e2e: map[string]float64{}, layer: map[string]float64{}, exact: map[string]float64{}}
	for _, m := range perLayer {
		r.layer[m.name] = 0
	}
	return r
}

// fail records one failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(cfg *config) (*result, error){
	"figures": runFigures,
	"search":  runSearchWorkload,
	"serve":   runServe,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "figures, search or serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/perfbench", "directory for span dumps and determinism records")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.log = os.Stdout
	os.Exit(run(&cfg))
}

// run executes one invocation and prints the report and the result line.
// It returns the process exit code.
func run(cfg *config) int {
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		return 2
	}
	res, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	code := 0
	if msg := guardDeterminism(cfg, res.exact); msg != "" {
		fmt.Fprintf(os.Stderr, "perfbench: determinism guard: %s\n", msg)
		res.fail("determinism: %s", msg)
		code = 3
	}
	if cfg.trace && res.spans != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := res.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(cfg.log, "spans: %s\n", path)
		printSelfTimes(cfg.log, res.spans)
	}
	for _, f := range res.failures {
		fmt.Fprintf(cfg.log, "FAILED: %s\n", f)
	}
	defs, vals := endToEnd, res.e2e
	if cfg.trace {
		defs, vals = perLayer, res.layer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.name)
			return 1
		}
		metrics[d.name] = mv{v, d.unit}
		fmt.Fprintf(cfg.log, "%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(cfg.log, "%-36s %16d/%d failed/attempted\n", "failed_ratio", res.failed, res.attempted)
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(cfg.log, string(line))
	if code == 0 && res.failed > 0 {
		code = 1
	}
	return code
}

func printSelfTimes(w io.Writer, t *tracer) {
	st := t.selfTimes()
	var all []*layerTime
	total := 0.0
	for _, lt := range st {
		all = append(all, lt)
		total += lt.SelfMS
	}
	sort.Slice(all, func(i, j int) bool { return all[i].SelfMS > all[j].SelfMS })
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s\n", "span", "calls", "total_ms", "self_ms", "self%")
	for _, lt := range all {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %6.1f%%\n", lt.Name, lt.Calls, lt.TotalMS, lt.SelfMS, 100*lt.SelfMS/total)
	}
}

// guardDeterminism compares the run's exact values with the record of an
// earlier run of the same binary, workload and seed, and writes the record
// when there is none. It returns a description of the first mismatch.
func guardDeterminism(cfg *config, exact map[string]float64) string {
	if len(exact) == 0 {
		return ""
	}
	id, err := binaryID()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: determinism record skipped: %v\n", err)
		return ""
	}
	name := fmt.Sprintf("%s-%s-seed%d-%gs-trace%v", id, cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	if cfg.tiny {
		name += "-tiny"
	}
	path := filepath.Join(cfg.outDir, "determinism", name+".json")
	if b, err := os.ReadFile(path); err == nil {
		var prev map[string]float64
		if err := json.Unmarshal(b, &prev); err == nil {
			keys := make([]string, 0, len(exact))
			for k := range exact {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if p, ok := prev[k]; !ok || p != exact[k] {
					return fmt.Sprintf("%s = %v, an earlier run with this seed gave %v", k, exact[k], p)
				}
			}
			return ""
		}
	}
	b, err := json.Marshal(exact)
	if err == nil {
		err = os.MkdirAll(filepath.Dir(path), 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: determinism record not written: %v\n", err)
	}
	return ""
}

// binaryID names the running build, so a record never outlives the code
// that wrote it.
func binaryID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	b, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6]), nil
}

// nproc bounds the benchmark's own parallelism: server workers, search
// workers and client connections.
func nproc() int { return runtime.GOMAXPROCS(0) }
