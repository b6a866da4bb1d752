package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"procdecomp/internal/analysis"
	"procdecomp/internal/autotune"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/trace"
)

// The search workload is the pdmap path: one client runs decomposition
// searches back to back, each on a fresh workload with no measurement
// cache shared across searches, so every search pays its full tiered cost.

type searchCell struct {
	n     int64
	procs int
}

var (
	searchCells    = []searchCell{{32, 4}, {32, 8}, {48, 4}, {48, 8}, {64, 4}, {64, 8}}
	tinySearch     = []searchCell{{8, 2}, {12, 2}}
	searchPrograms = []string{"gs", "gs_rev", "jacobi"}
)

const (
	searchLight = "tri" // about half the cost of the other programs
	// searchRepeat is how often each cell appears in one pass: a seed
	// changes which program meets which size but not the pass's size mix.
	searchRepeat = 2
)

// searchDraw is one (program, N, S) search.
type searchDraw struct {
	prog  *program
	n     int64
	procs int
}

func (d *searchDraw) String() string { return fmt.Sprintf("%s N=%d S=%d", d.prog.name, d.n, d.procs) }

func (d *searchDraw) workload() *autotune.Workload {
	return &autotune.Workload{Name: d.prog.name, Source: d.prog.src, Entry: d.prog.entry,
		Dist: d.prog.dist, Defines: d.prog.defines(d.n)}
}

func searchDraws(cfg *config, corpus map[string]*program) []*searchDraw {
	rng := rngFor(cfg.seed, "search")
	cells := searchCells
	if cfg.tiny {
		cells = tinySearch
	}
	var slots []searchCell
	for r := 0; r < searchRepeat; r++ {
		slots = append(slots, cells...)
	}
	// tri costs about half as much as the other programs, so it gets
	// exactly one slot per grid size (the seed picks which); the others
	// share the remaining slots evenly.
	progs := make([]string, len(slots))
	byN := map[int64][]int{}
	var sizes []int64
	for i, s := range slots {
		if byN[s.n] == nil {
			sizes = append(sizes, s.n)
		}
		byN[s.n] = append(byN[s.n], i)
	}
	var rest []int
	for _, n := range sizes {
		idx := byN[n]
		t := rng.Intn(len(idx))
		progs[idx[t]] = searchLight
		rest = append(rest, idx[:t]...)
		rest = append(rest, idx[t+1:]...)
	}
	for k, i := range rng.Perm(len(rest)) {
		progs[rest[i]] = searchPrograms[k%len(searchPrograms)]
	}
	draws := make([]*searchDraw, len(slots))
	for i, k := range rng.Perm(len(slots)) {
		draws[i] = &searchDraw{prog: corpus[progs[k]], n: slots[k].n, procs: slots[k].procs}
	}
	return draws
}

// searchOutcome is the exact part of one search's report.
type searchOutcome struct {
	winner                                             string
	makespan                                           uint64
	messages, values                                   int64
	enumerated, infeasible, pruned, replayed, measured int
}

// searchStages are the tier boundaries taken from Options.Progress.
type searchStages struct {
	anchor, static, replay, measure time.Duration
}

// runSearch runs one search and times its tiers from the progress reports:
// the anchor ends at "baseline", tier 1 runs from "enumerated" to "static",
// tier 2 from "static" to "predicted", and tier 3 ends at the last
// "measured".
func runSearch(tr *tracer, op int64, d *searchDraw) (searchOutcome, searchStages, *autotune.Candidate, error) {
	var mu sync.Mutex
	stamps := map[string]time.Time{}
	opts := autotune.Options{Workers: nproc(), Progress: func(p autotune.Progress) {
		now := time.Now()
		mu.Lock()
		stamps[p.Stage] = now
		mu.Unlock()
	}}
	root := tr.begin(op, 0, "autotune.search")
	t0 := time.Now()
	rep, err := autotune.SearchCtx(context.Background(), d.workload(), machine.DefaultConfig(d.procs), opts)
	tr.end(root)
	if err != nil {
		return searchOutcome{}, searchStages{}, nil, err
	}
	mu.Lock()
	st := searchStages{
		anchor:  stamps["baseline"].Sub(t0),
		static:  stamps["static"].Sub(stamps["enumerated"]),
		replay:  stamps["predicted"].Sub(stamps["static"]),
		measure: stamps["measured"].Sub(stamps["predicted"]),
	}
	tr.record(op, root, "autotune.anchor", t0, stamps["baseline"])
	tr.record(op, root, "autotune.static", stamps["enumerated"], stamps["static"])
	tr.record(op, root, "autotune.replay", stamps["static"], stamps["predicted"])
	tr.record(op, root, "autotune.measure", stamps["predicted"], stamps["measured"])
	mu.Unlock()
	out := searchOutcome{winner: rep.Winner, enumerated: rep.Enumerated, replayed: rep.Replayed}
	var win *autotune.Candidate
	for i, r := range rep.Results {
		switch r.Status {
		case autotune.StatusInfeasible:
			out.infeasible++
		case autotune.StatusPruned:
			out.pruned++
		case autotune.StatusMeasured:
			out.measured++
		}
		if r.Candidate.Key() == rep.Winner {
			out.makespan, out.messages, out.values = r.Measured, r.Messages, r.Values
			win = &rep.Results[i].Candidate
		}
	}
	if win == nil {
		return out, st, nil, fmt.Errorf("winner %s missing from the results", rep.Winner)
	}
	return out, st, win, nil
}

// searchLayers accumulates the traced segment's per-layer counters.
type searchLayers struct {
	stages                                   searchStages
	searches                                 int
	candidates, walked                       int
	compileTime, walkTime                    time.Duration
	coreStmts, xformStmts, applied, compiled int
	anchors, traceEvents                     int
}

// compileCandidates compiles every candidate of the draw's space the way
// tier 1 does — parse, retarget, sem, core, xform — and walks it with
// autotune.BuildProfile, splitting tier 1 into compile and walk time.
func compileCandidates(tr *tracer, op int64, d *searchDraw, l *searchLayers) {
	cands := autotune.Space{}.Enumerate(d.procs)
	hand := autotune.DefaultHand(d.procs)
	found := false
	for _, c := range cands {
		found = found || c.Key() == hand.Key()
	}
	if !found {
		cands = append(cands, hand)
	}
	cfg := machine.DefaultConfig(d.procs)
	for _, c := range cands {
		c := c
		l.candidates++
		s := tr.begin(op, 0, "autotune.candidate")
		t0 := time.Now()
		comp, err := compile(tr, op, s, d.prog, d.n, d.procs, c.Mode, c.Blk, &c.Mapping)
		l.compileTime += time.Since(t0)
		if err == nil {
			l.compiled++
			l.coreStmts += comp.coreStmts
			l.xformStmts += comp.xformStmts
			l.applied += comp.applied
			w := tr.begin(op, s, "autotune.walk")
			t1 := time.Now()
			_, err = autotune.BuildProfile(comp.progs, cfg)
			l.walkTime += time.Since(t1)
			l.walked++
			tr.end(w)
		}
		tr.end(s)
	}
}

// replayAnchor repeats the search's anchor from outside: run the program
// as declared, traced, check it against the reference, and analyze it.
func replayAnchor(tr *tracer, op int64, d *searchDraw, in *input, l *searchLayers) error {
	root := tr.begin(op, 0, "anchor")
	defer tr.end(root)
	c, err := compile(tr, op, root, d.prog, d.n, d.procs, "ctr", 0, nil)
	if err != nil {
		return err
	}
	m, err := in.matrix()
	if err != nil {
		return err
	}
	cfg := machine.DefaultConfig(d.procs)
	mlog := trace.New()
	cfg.Tracer = mlog
	s := tr.begin(op, root, "exec.spmd")
	out, err := exec.RunSPMD(c.progs, cfg, map[string]*istruct.Matrix{in.name: m})
	tr.end(s)
	if err != nil {
		return err
	}
	want, err := reference(tr, op, root, d.prog, c.info, in)
	if err != nil {
		return err
	}
	s = tr.begin(op, root, "bench.check")
	err = sameMatrix(want, out.Arrays[d.prog.out])
	tr.end(s)
	if err != nil {
		return fmt.Errorf("wrong answer: %w", err)
	}
	s = tr.begin(op, root, "analysis.analyze")
	_, err = analysis.Analyze(analysis.NewDump(cfg, mlog), analysis.Options{})
	tr.end(s)
	l.anchors++
	l.traceEvents += mlog.Len()
	return err
}

type searchSegment struct {
	ops     int
	lat     []float64 // ms per search
	rates   []float64 // searches/s of each pass
	cpu     []float64 // CPU ms per search of each pass
	elapsed time.Duration
	alloc   usage
}

func runSearchSegment(cfg *config, draws []*searchDraw, seconds float64, tr *tracer, layers *searchLayers,
	first []searchOutcome, winners []*autotune.Candidate, inputs []*input, res *result) searchSegment {
	var seg searchSegment
	mem := readUsage()
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(end); pass++ {
		// The pass's own search time, without the traced extras.
		var busy, cpu time.Duration
		for i, d := range draws {
			op := int64(seg.ops) + 1
			t0, c0 := time.Now(), cpuTime()
			out, st, win, err := runSearch(tr, op, d)
			busy += time.Since(t0)
			cpu += cpuTime() - c0
			seg.lat = append(seg.lat, ms(time.Since(t0)))
			seg.ops++
			res.attempted++
			switch {
			case err != nil:
				res.fail("search %s: %v", d, err)
				continue
			case first[i] == (searchOutcome{}):
				first[i], winners[i] = out, win
			case first[i] != out:
				res.fail("search %s: report %+v, an earlier pass gave %+v", d, out, first[i])
			}
			if layers != nil {
				layers.searches++
				layers.stages.anchor += st.anchor
				layers.stages.static += st.static
				layers.stages.replay += st.replay
				layers.stages.measure += st.measure
				if pass == 0 {
					// Outside the search's own time: the tier-1 split and
					// the anchor, once per draw.
					compileCandidates(tr, -op, d, layers)
					if err := replayAnchor(tr, -op, d, inputs[i], layers); err != nil {
						res.fail("anchor %s: %v", d, err)
					}
				}
			}
		}
		seg.rates = append(seg.rates, float64(len(draws))/busy.Seconds())
		seg.cpu = append(seg.cpu, ms(cpu)/float64(len(draws)))
	}
	seg.elapsed = time.Since(start)
	seg.alloc = mem.since()
	return seg
}

func runSearchWorkload(cfg *config) (*result, error) {
	res := newResult()
	type searchSetup struct {
		draws  []*searchDraw
		inputs []*input
	}
	// A search's set-up is small, so its median takes more repetitions.
	setupS, su, err := medianSetup(25, func() (searchSetup, error) {
		corpus, err := loadCorpus()
		if err != nil {
			return searchSetup{}, err
		}
		rng := rngFor(cfg.seed, "search-inputs")
		s := searchSetup{draws: searchDraws(cfg, corpus)}
		for _, d := range s.draws {
			if _, err := compile(nil, 0, 0, d.prog, d.n, d.procs, "ctr", 0, nil); err != nil {
				return s, fmt.Errorf("%s: %w", d, err)
			}
			s.inputs = append(s.inputs, newInput(d.prog, d.n, rng))
		}
		return s, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	draws := su.draws
	first := make([]searchOutcome, len(draws))
	winners := make([]*autotune.Candidate, len(draws))
	seg := runSearchSegment(cfg, draws, cfg.seconds, nil, nil, first, winners, su.inputs, res)
	p50, _ := quantile(seg.lat, 0.5)
	p75, ok := quantile(seg.lat, 0.75)
	if !ok && !cfg.tiny {
		res.fail("wall.op_tail_ms (p75) rests on %d searches; it needs 40", len(seg.lat))
	}
	res.e2e["setup_s"] = setupS
	// Medians over passes, so a pass the host stalled does not move them.
	res.e2e["cpu_ms_per_op"] = median(seg.cpu)
	res.e2e["alloc_mb_per_op"] = float64(seg.alloc.bytes) / float64(seg.ops) / (1 << 20)
	res.layer["wall.ops_per_s"] = median(seg.rates)
	res.layer["wall.op_p50_ms"] = p50
	res.layer["wall.op_tail_ms"] = p75
	fmt.Fprintf(cfg.log, "search: %d draws/pass, %d searches in %.2fs (%.2f CPU-s); %.3f searches/s, p50 %.1fms and p75 %.1fms over n=%d\n",
		len(draws), seg.ops, seg.elapsed.Seconds(), seg.alloc.cpu.Seconds(), median(seg.rates), p50, p75, len(seg.lat))
	if cfg.trace {
		// Half as long again, traced; the untraced segment above is the
		// overhead baseline. The traced segment also compiles candidates
		// and replays anchors outside the searches, so the overhead
		// compares the searches' own times.
		tr := newTracer()
		var l searchLayers
		traced := runSearchSegment(cfg, draws, cfg.seconds/2, tr, &l, first, winners, su.inputs, res)
		res.spans = tr
		res.layer["bench.trace_overhead_ratio"] = mean(traced.lat)/mean(seg.lat) - 1
		fillSpanLayers(res, tr)
		fillSearchLayers(res, &l)
	}
	if cfg.perturb {
		// Negative control: a wrong expected makespan must fail the check.
		first[0].makespan++
	}
	// Output check: re-measure each winner and demand the report's makespan.
	var mk []float64
	var msgs, vals int64
	var counts [5]int
	for i, d := range draws {
		o, w := first[i], winners[i]
		if w == nil {
			continue // the search failed; res already counts it
		}
		m, err := autotune.Measure(d.workload(), *w, machine.DefaultConfig(d.procs))
		switch {
		case err != nil:
			res.fail("re-measure %s winner %s: %v", d, o.winner, err)
		case m.Makespan != o.makespan || m.Messages != o.messages || m.Values != o.values:
			res.fail("re-measure %s winner %s: makespan %d, report %d", d, o.winner, m.Makespan, o.makespan)
		}
		mk = append(mk, float64(o.makespan))
		msgs += o.messages
		vals += o.values
		counts[0] += o.enumerated
		counts[1] += o.infeasible
		counts[2] += o.pruned
		counts[3] += o.replayed
		counts[4] += o.measured
	}
	res.e2e["sim_cycles_geomean"] = geomean(mk)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.exact["sim_cycles_geomean"] = res.e2e["sim_cycles_geomean"]
	res.exact["machine.messages"] = float64(msgs)
	res.exact["machine.values"] = float64(vals)
	for k, name := range []string{"enumerated", "infeasible", "pruned", "replayed", "measured"} {
		res.exact["autotune."+name] = float64(counts[k])
		res.layer["autotune."+name] = float64(counts[k])
	}
	if counts[0] > 0 {
		res.layer["autotune.prune_ratio"] = float64(counts[2]) / float64(counts[0])
	}
	res.layer["machine.messages"] = float64(msgs)
	res.layer["machine.values"] = float64(vals)
	return res, nil
}

func fillSearchLayers(res *result, l *searchLayers) {
	if l.searches > 0 {
		n := float64(l.searches)
		res.layer["autotune.anchor_ms"] = ms(l.stages.anchor) / n
		res.layer["autotune.static_ms"] = ms(l.stages.static) / n
		res.layer["autotune.replay_ms"] = ms(l.stages.replay) / n
		res.layer["autotune.measure_ms"] = ms(l.stages.measure) / n
	}
	if l.candidates > 0 {
		res.layer["autotune.compile_ms_per_candidate"] = ms(l.compileTime) / float64(l.candidates)
	}
	if l.walked > 0 {
		res.layer["autotune.walk_ms_per_candidate"] = ms(l.walkTime) / float64(l.walked)
	}
	if l.compiled > 0 {
		res.layer["core.ir_stmts"] = float64(l.coreStmts) / float64(l.compiled)
		res.layer["xform.ir_stmts"] = float64(l.xformStmts) / float64(l.compiled)
		res.layer["xform.applied"] = float64(l.applied) / float64(l.compiled)
	}
	if l.anchors > 0 {
		res.layer["trace.events"] = float64(l.traceEvents) / float64(l.anchors)
	}
}
