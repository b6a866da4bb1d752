package main

import (
	"embed"
	"fmt"
	"math/rand"
	"path"

	"procdecomp/internal/autotune"
	"procdecomp/internal/core"
	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
	"procdecomp/internal/xform"
)

// The Idn corpus lives with the benchmark so that its inputs do not move
// when the repository's examples do.
//
//go:embed corpus/*.idn
var corpusFS embed.FS

// program is one corpus entry and how to drive it.
type program struct {
	name  string
	src   string
	entry string
	dist  string   // the dist declaration a search retargets
	param string   // the entry's matrix parameter
	out   string   // the array the entry returns
	sizes []string // constants bound to the grid size
	// rowOnly marks a program whose input defines only row 1 (the heat
	// equation's initial condition); it computes the other rows in place.
	rowOnly bool
}

var corpusMeta = []program{
	{name: "gs", entry: "gs_iteration", dist: "Column", param: "Old", out: "New", sizes: []string{"N"}},
	{name: "gs_rev", entry: "gs_iteration", dist: "Column", param: "Old", out: "New", sizes: []string{"N"}},
	{name: "jacobi", entry: "jacobi", dist: "D", param: "Old", out: "New", sizes: []string{"N"}},
	{name: "tri", entry: "tri", dist: "D", param: "Old", out: "New", sizes: []string{"N"}},
	{name: "heat", entry: "heat", dist: "Steps", param: "U", out: "U", sizes: []string{"T", "W"}, rowOnly: true},
}

// loadCorpus reads the embedded programs and checks that each parses.
func loadCorpus() (map[string]*program, error) {
	out := map[string]*program{}
	for _, meta := range corpusMeta {
		b, err := corpusFS.ReadFile(path.Join("corpus", meta.name+".idn"))
		if err != nil {
			return nil, err
		}
		p := meta
		p.src = string(b)
		if _, err := lang.Parse(p.src); err != nil {
			return nil, fmt.Errorf("corpus %s: %w", p.name, err)
		}
		out[p.name] = &p
	}
	return out, nil
}

func (p *program) defines(n int64) map[string]int64 {
	d := map[string]int64{}
	for _, s := range p.sizes {
		d[s] = n
	}
	return d
}

// input is an n×n input grid for the entry's parameter; elements whose def
// is false stay undefined.
type input struct {
	name string
	n    int64
	vals []float64
	def  []bool
}

// newInput fills a seeded grid: every element, or row 1 alone for a
// rowOnly program.
func newInput(p *program, n int64, rng *rand.Rand) *input {
	in := &input{name: p.param, n: n, vals: make([]float64, n*n), def: make([]bool, n*n)}
	for i := range in.vals {
		if p.rowOnly && int64(i) >= n {
			break
		}
		in.vals[i] = float64(rng.Intn(4096)) / 16
		in.def[i] = true
	}
	return in
}

// matrix materializes a fresh copy: the sequential interpreter writes the
// heat program's rows into its argument, so each engine gets its own.
func (in *input) matrix() (*istruct.Matrix, error) {
	m, err := istruct.NewMatrix(in.name, in.n, in.n)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < in.n; i++ {
		for j := int64(0); j < in.n; j++ {
			if in.def[i*in.n+j] {
				if err := m.Write(i+1, j+1, in.vals[i*in.n+j]); err != nil {
					return nil, err
				}
			}
		}
	}
	return m, nil
}

// compiled is a program lowered for one machine size and pipeline.
type compiled struct {
	info       *sem.Info
	progs      []*spmd.Program
	coreStmts  int // IR statements out of core
	xformStmts int // IR statements after the pass pipeline
	applied    int // rewrites the passes applied
}

// compile runs parse → (retarget) → sem → core → xform, one span per layer.
// A non-nil mapping retargets the program's dist declaration the way the
// search compiles its candidates.
func compile(tr *tracer, op int64, parent int, p *program, n int64, procs int, mode string, blk int64, mapping *autotune.Mapping) (*compiled, error) {
	s := tr.begin(op, parent, "lang.parse")
	prog, err := lang.Parse(p.src)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if mapping != nil {
		s = tr.begin(op, parent, "autotune.retarget")
		err := mapping.Validate(int64(procs))
		if err == nil {
			err = autotune.Retarget(prog, p.dist, *mapping)
		}
		tr.end(s)
		if err != nil {
			return nil, err
		}
	}
	s = tr.begin(op, parent, "sem.check")
	info, errs := sem.Check(prog, sem.Config{Procs: int64(procs), Defines: p.defines(n)})
	tr.end(s)
	if len(errs) > 0 {
		return nil, errs[0]
	}
	c := &compiled{info: info}
	s = tr.begin(op, parent, "core.compile")
	if mode == "rtr" {
		var g *spmd.Program
		g, err = core.New(info).CompileRTR(p.entry)
		c.progs = []*spmd.Program{g}
	} else {
		c.progs, err = core.New(info).CompileCTR(p.entry, true)
	}
	tr.end(s)
	if err != nil {
		return nil, err
	}
	c.coreStmts = countStmts(c.progs)
	if mode == "rtr" || mode == "ctr" {
		c.xformStmts = c.coreStmts
		return c, nil
	}
	passes, ok := xform.StandardPipeline(mode, blk)
	if !ok {
		return nil, fmt.Errorf("unknown mode %q", mode)
	}
	s = tr.begin(op, parent, "xform.apply")
	counts, err := xform.Apply(c.progs, passes)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	for _, k := range counts {
		c.applied += k
	}
	c.xformStmts = countStmts(c.progs)
	return c, nil
}

func countStmts(progs []*spmd.Program) int {
	var walk func([]spmd.Stmt) int
	walk = func(body []spmd.Stmt) int {
		n := len(body)
		for _, st := range body {
			switch st := st.(type) {
			case *spmd.For:
				n += walk(st.Body)
			case *spmd.Guard:
				n += walk(st.Body)
			case *spmd.IfValue:
				n += walk(st.Then) + walk(st.Else)
			}
		}
		return n
	}
	total := 0
	for _, p := range progs {
		total += walk(p.Body)
	}
	return total
}

// reference runs the sequential interpreter on a fresh copy of the input.
func reference(tr *tracer, op int64, parent int, p *program, info *sem.Info, in *input) (*istruct.Matrix, error) {
	m, err := in.matrix()
	if err != nil {
		return nil, err
	}
	s := tr.begin(op, parent, "exec.seq")
	out, err := exec.RunSequential(info, p.entry, []exec.ArgVal{{Matrix: m}})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	if !out.HasRet || out.Ret.Matrix == nil {
		return nil, fmt.Errorf("%s returns no array", p.entry)
	}
	return out.Ret.Matrix, nil
}

// sameMatrix checks definedness and values element by element.
func sameMatrix(want, got *istruct.Matrix) error {
	if got == nil {
		return fmt.Errorf("output array missing")
	}
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		return fmt.Errorf("output is %dx%d, reference %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := int64(1); i <= want.Rows(); i++ {
		for j := int64(1); j <= want.Cols(); j++ {
			if want.Defined(i, j) != got.Defined(i, j) {
				return fmt.Errorf("definedness differs at (%d,%d)", i, j)
			}
			if !want.Defined(i, j) {
				continue
			}
			w, _ := want.Read(i, j)
			g, _ := got.Read(i, j)
			if d := w - g; d > 1e-9 || d < -1e-9 {
				return fmt.Errorf("value differs at (%d,%d): %g, reference %g", i, j, g, w)
			}
		}
	}
	return nil
}

// rngFor derives an independent deterministic stream for one purpose of
// one seed.
func rngFor(seed uint64, purpose string) *rand.Rand {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, c := range []byte(purpose) {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return rand.New(rand.NewSource(int64(h)))
}

// deck returns count values in seeded order: shuffled copies of vals one
// after another, so every prefix holds each value equally often, to within
// one.
func deck[T any](rng *rand.Rand, vals []T, count int) []T {
	var out []T
	for len(out) < count {
		c := append([]T(nil), vals...)
		rng.Shuffle(len(c), func(i, j int) { c[i], c[j] = c[j], c[i] })
		out = append(out, c...)
	}
	return out[:count]
}
