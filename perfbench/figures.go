package main

import (
	"fmt"
	"time"

	"procdecomp/internal/analysis"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
	"procdecomp/internal/wavefront"
)

// The figures workload is the pdrun/pdbench path the paper's figures come
// from: compile a corpus program under one of the Fig. 6/7 variants,
// simulate it, and check it against the sequential reference. One client
// runs the seeded job list in a closed loop, whole passes at a time.

// figShape is a (grid size, processes) pair.
type figShape struct {
	n     int64
	procs int
}

var (
	figShapes = []figShape{{16, 2}, {16, 16}, {24, 4}, {32, 8}, {32, 32}, {48, 2},
		{48, 16}, {64, 4}, {64, 8}, {96, 2}, {128, 8}}
	figModes    = []string{"rtr", "ctr", "opt1", "opt2", "opt3"}
	figPrograms = []string{"gs", "gs_rev", "jacobi", "tri", "heat"}
	figBlks     = []int64{2, 4, 8, 16}
	tinyShapes  = []figShape{{8, 2}, {12, 4}}
)

const (
	figTraceEach = 8  // one job in eight is traced and analyzed
	figPaperN    = 96 // from this grid size up, jobs run the paper's configuration
)

// figJob is one compile-and-simulate job.
type figJob struct {
	kind      string // "compiled", "hand" (Fig. 3 wavefront) or "mux" (§5.4 placement)
	prog      *program
	mode      string
	n         int64
	procs     int
	blk       int64
	placement []int
	traced    bool
	in        *input
	refIn     *input // the reference's input: in, except in the negative control
}

func (j *figJob) String() string {
	return fmt.Sprintf("%s %s/%s N=%d S=%d blk=%d mux=%v", j.kind, j.prog.name, j.mode, j.n, j.procs, j.blk, j.placement)
}

// figOutcome is the exact, deterministic part of a job's result.
type figOutcome struct {
	makespan         uint64
	messages, values int64
}

// figLayers accumulates the counters a traced segment reports.
type figLayers struct {
	compiled, coreStmts, xformStmts, applied int
	spmdCalls                                int
	spmdAllocs                               uint64
	machineMsgs                              int64
	machineHost                              time.Duration
	machineAllocs                            uint64
	tracedJobs, traceEvents                  int
}

// figuresJobs builds one pass of jobs from the seed.
func figuresJobs(cfg *config, corpus map[string]*program) []*figJob {
	rng := rngFor(cfg.seed, "figures")
	shapes := figShapes
	if cfg.tiny {
		shapes = tinyShapes
	}
	// Every variant runs every program at every shape; the seed deals the
	// block sizes, the placements and the inputs. The largest grids run
	// only the paper's own configuration (Gauss-Seidel, block size 8).
	// A pass thus costs about the same for every seed, while its simulated
	// cycles still depend on the seed's block sizes.
	var jobs []*figJob
	opt3Blks := deck(rng, figBlks, len(shapes)*len(figPrograms))
	for _, mode := range figModes {
		for s, sh := range shapes {
			for pi, name := range figPrograms {
				j := &figJob{kind: "compiled", prog: corpus[name], mode: mode, n: sh.n, procs: sh.procs}
				if mode == "opt3" {
					j.blk = opt3Blks[s*len(figPrograms)+pi]
				}
				if sh.n >= figPaperN {
					if name != "gs" {
						continue
					}
					if mode == "opt3" {
						j.blk = 8
					}
				}
				jobs = append(jobs, j)
			}
		}
	}
	blks := deck(rng, figBlks, len(shapes))
	for s, sh := range shapes {
		j := &figJob{kind: "hand", prog: corpus["gs"], mode: "hand", n: sh.n, procs: sh.procs, blk: blks[s]}
		if sh.n >= figPaperN {
			j.blk = 8
		}
		jobs = append(jobs, j)
	}
	muxN := int64(48)
	if cfg.tiny {
		muxN = 12
	}
	for _, nf := range [][2]int{{2, 2}, {2, 4}, {4, 2}, {4, 4}} {
		nodes, factor := nf[0], nf[1]
		vprocs := nodes * factor
		place := make([]int, vprocs)
		blocked := rng.Intn(2) == 1
		for i := range place {
			if blocked {
				place[i] = i / factor
			} else {
				place[i] = i % nodes
			}
		}
		jobs = append(jobs, &figJob{kind: "mux", prog: corpus["gs"], mode: "opt3",
			n: muxN, procs: vprocs, blk: figBlks[rng.Intn(len(figBlks))], placement: place})
	}
	for i, j := range jobs {
		// The analyzer's identity replay does not reproduce every
		// multiplexed run (METRICS.md, "Known gap"), so multiplexed jobs
		// are not analyzed; nor are the paper-size grids, whose traces
		// would dominate the pass.
		j.traced = i%figTraceEach == figTraceEach-1 && j.placement == nil && j.n < figPaperN
		j.in = newInput(j.prog, j.n, rng)
		j.refIn = j.in
	}
	return jobs
}

// runFigJob runs one job end to end. layers is non-nil in the traced
// segment, which also counts allocations around the machine calls.
func runFigJob(tr *tracer, op int64, j *figJob, layers *figLayers) (figOutcome, error) {
	root := tr.begin(op, 0, "job")
	defer tr.end(root)
	cfg := machine.DefaultConfig(j.procs)
	cfg.Placement = j.placement
	var mlog *trace.Log
	if j.traced {
		mlog = trace.New()
		cfg.Tracer = mlog
	}
	m, err := j.in.matrix()
	if err != nil {
		return figOutcome{}, err
	}
	var (
		stats machine.Stats
		got   *istruct.Matrix
		c     *compiled
		mem   usage
	)
	if j.kind == "hand" {
		// The hand-written program has no compiled form; the front end
		// still runs, for the reference.
		c, err = compile(tr, op, root, j.prog, j.n, j.procs, "ctr", 0, nil)
		if err != nil {
			return figOutcome{}, err
		}
		if layers != nil {
			mem = readUsage()
		}
		t0 := time.Now()
		s := tr.begin(op, root, "machine.wavefront")
		res, err := wavefront.Run(cfg, j.n, j.blk, m)
		tr.end(s)
		if err != nil {
			return figOutcome{}, err
		}
		if layers != nil {
			layers.machineHost += time.Since(t0)
			layers.machineAllocs += mem.since().objects
			layers.machineMsgs += res.Stats.Messages
		}
		stats, got = res.Stats, res.New
	} else {
		c, err = compile(tr, op, root, j.prog, j.n, j.procs, j.mode, j.blk, nil)
		if err != nil {
			return figOutcome{}, err
		}
		if layers != nil {
			layers.compiled++
			layers.coreStmts += c.coreStmts
			layers.xformStmts += c.xformStmts
			layers.applied += c.applied
			mem = readUsage()
		}
		t0 := time.Now()
		s := tr.begin(op, root, "exec.spmd")
		out, err := exec.RunSPMD(c.progs, cfg, map[string]*istruct.Matrix{j.in.name: m})
		tr.end(s)
		if err != nil {
			return figOutcome{}, err
		}
		if layers != nil {
			a := mem.since().objects
			layers.spmdCalls++
			layers.spmdAllocs += a
			if j.kind == "mux" {
				layers.machineHost += time.Since(t0)
				layers.machineAllocs += a
				layers.machineMsgs += out.Stats.Messages
			}
		}
		stats, got = out.Stats, out.Arrays[j.prog.out]
	}
	want, err := reference(tr, op, root, j.prog, c.info, j.refIn)
	if err != nil {
		return figOutcome{}, err
	}
	s := tr.begin(op, root, "bench.check")
	err = sameMatrix(want, got)
	tr.end(s)
	if err != nil {
		return figOutcome{}, fmt.Errorf("wrong answer: %w", err)
	}
	if j.traced {
		s := tr.begin(op, root, "analysis.analyze")
		rep, err := analysis.Analyze(analysis.NewDump(cfg, mlog), analysis.Options{})
		tr.end(s)
		if err != nil {
			return figOutcome{}, err
		}
		if rep.Makespan != stats.Makespan {
			return figOutcome{}, fmt.Errorf("analysis makespan %d, machine %d", rep.Makespan, stats.Makespan)
		}
		if layers != nil {
			layers.tracedJobs++
			layers.traceEvents += mlog.Len()
		}
	}
	return figOutcome{makespan: stats.Makespan, messages: stats.Messages, values: stats.Values}, nil
}

// figSegment runs whole passes until the segment's time is up.
type figSegment struct {
	ops     int
	lat     []float64 // ms per job
	rates   []float64 // jobs/s of each pass
	cpu     []float64 // CPU ms per job of each pass
	elapsed time.Duration
	alloc   usage
}

func runFigSegment(cfg *config, jobs []*figJob, seconds float64, tr *tracer, layers *figLayers,
	first []figOutcome, res *result, opBase int64) figSegment {
	var seg figSegment
	mem := readUsage()
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		p0, c0 := time.Now(), cpuTime()
		for i, j := range jobs {
			op := opBase + int64(seg.ops) + 1
			t0 := time.Now()
			out, err := runFigJob(tr, op, j, layers)
			seg.lat = append(seg.lat, ms(time.Since(t0)))
			seg.ops++
			res.attempted++
			switch {
			case err != nil:
				res.fail("job %s: %v", j, err)
			case first[i] == (figOutcome{}):
				first[i] = out
			case first[i] != out:
				res.fail("job %s: simulated %+v, an earlier pass gave %+v", j, out, first[i])
			}
		}
		seg.rates = append(seg.rates, float64(len(jobs))/time.Since(p0).Seconds())
		seg.cpu = append(seg.cpu, ms(cpuTime()-c0)/float64(len(jobs)))
	}
	seg.elapsed = time.Since(start)
	seg.alloc = mem.since()
	return seg
}

func runFigures(cfg *config) (*result, error) {
	res := newResult()
	setupS, jobs, err := medianSetup(9, func() ([]*figJob, error) {
		corpus, err := loadCorpus()
		if err != nil {
			return nil, err
		}
		jobs := figuresJobs(cfg, corpus)
		// Corpus build: every job's program must pass the front end at its
		// size before the clock starts.
		for _, j := range jobs {
			if _, err := compile(nil, 0, 0, j.prog, j.n, j.procs, "ctr", 0, nil); err != nil {
				return nil, fmt.Errorf("%s: %w", j, err)
			}
		}
		return jobs, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	if cfg.perturb {
		// Negative control: a reference computed from other inputs must
		// surface as wrong answers.
		jobs[0].refIn = perturbedInput(jobs[0].in)
	}
	first := make([]figOutcome, len(jobs))
	seg := runFigSegment(cfg, jobs, cfg.seconds, nil, nil, first, res, 0)
	p50, _ := quantile(seg.lat, 0.5)
	p95, ok := quantile(seg.lat, 0.95)
	if !ok && !cfg.tiny {
		res.fail("wall.op_tail_ms (p95) rests on %d jobs; it needs 200", len(seg.lat))
	}
	res.e2e["setup_s"] = setupS
	// Medians over passes, so a pass the host stalled does not move them.
	res.e2e["cpu_ms_per_op"] = median(seg.cpu)
	res.e2e["alloc_mb_per_op"] = float64(seg.alloc.bytes) / float64(seg.ops) / (1 << 20)
	res.layer["wall.ops_per_s"] = median(seg.rates)
	res.layer["wall.op_p50_ms"] = p50
	res.layer["wall.op_tail_ms"] = p95
	fmt.Fprintf(cfg.log, "figures: %d jobs/pass, %d jobs in %.2fs (%.2f CPU-s); %.2f jobs/s, p50 %.3fms and p95 %.3fms over n=%d\n",
		len(jobs), seg.ops, seg.elapsed.Seconds(), seg.alloc.cpu.Seconds(), median(seg.rates), p50, p95, len(seg.lat))
	if cfg.trace {
		// Half as long again, traced; the untraced segment above is the
		// overhead baseline.
		tr := newTracer()
		var layers figLayers
		traced := runFigSegment(cfg, jobs, cfg.seconds/2, tr, &layers, first, res, int64(seg.ops))
		res.spans = tr
		res.layer["bench.trace_overhead_ratio"] = mean(traced.lat)/mean(seg.lat) - 1
		fillSpanLayers(res, tr)
		fillFigLayers(res, &layers)
	}
	var mk []float64
	var msgs, vals int64
	for _, o := range first {
		if o.makespan == 0 {
			continue // the job failed; res already counts it
		}
		mk = append(mk, float64(o.makespan))
		msgs += o.messages
		vals += o.values
	}
	res.e2e["sim_cycles_geomean"] = geomean(mk)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.layer["machine.messages"] = float64(msgs)
	res.layer["machine.values"] = float64(vals)
	res.exact["sim_cycles_geomean"] = res.e2e["sim_cycles_geomean"]
	res.exact["machine.messages"] = float64(msgs)
	res.exact["machine.values"] = float64(vals)
	return res, nil
}

// spanLayers maps span names to the per-layer time metrics they feed; each
// metric is the mean self time per call.
var spanLayers = map[string]string{
	"lang.parse":       "lang.parse_ms",
	"sem.check":        "sem.check_ms",
	"core.compile":     "core.compile_ms",
	"xform.apply":      "xform.apply_ms",
	"exec.spmd":        "exec.spmd_ms",
	"exec.seq":         "exec.seq_ms",
	"bench.check":      "bench.check_ms",
	"analysis.analyze": "analysis.analyze_ms",
}

func fillSpanLayers(res *result, tr *tracer) {
	for name, lt := range tr.selfTimes() {
		if metric, ok := spanLayers[name]; ok && lt.Calls > 0 {
			res.layer[metric] = lt.SelfMS / float64(lt.Calls)
		}
	}
}

func fillFigLayers(res *result, l *figLayers) {
	if l.compiled > 0 {
		res.layer["core.ir_stmts"] = float64(l.coreStmts) / float64(l.compiled)
		res.layer["xform.ir_stmts"] = float64(l.xformStmts) / float64(l.compiled)
		res.layer["xform.applied"] = float64(l.applied) / float64(l.compiled)
	}
	if l.spmdCalls > 0 {
		res.layer["exec.spmd_allocs"] = float64(l.spmdAllocs) / float64(l.spmdCalls)
	}
	if l.machineMsgs > 0 {
		res.layer["machine.msgs_per_host_s"] = float64(l.machineMsgs) / l.machineHost.Seconds()
		res.layer["machine.allocs_per_msg"] = float64(l.machineAllocs) / float64(l.machineMsgs)
	}
	if l.tracedJobs > 0 {
		res.layer["trace.events"] = float64(l.traceEvents) / float64(l.tracedJobs)
	}
}

// perturbedInput copies an input with every value changed.
func perturbedInput(in *input) *input {
	out := *in
	out.vals = make([]float64, len(in.vals))
	for i, v := range in.vals {
		out.vals[i] = v + 1
	}
	return &out
}
