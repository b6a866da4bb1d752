package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"procdecomp/internal/exec"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/obs"
	"procdecomp/internal/serve"
	"procdecomp/internal/spmd"
)

// The serve workload drives an in-process pdserve over a real loopback
// listener with an open loop: requests are due on a fixed schedule whether
// or not earlier ones have finished, and each is timed from when it was
// due. The mix is ~70% hot /run and /compile requests answered from the
// cache, ~20% cold synchronous /run requests (admission, compile, simulate,
// encode, cache Put) and ~10% cold POST /jobs followed on their event
// stream (journal appends on top). Every server gets a fresh cache
// directory of its own.

const (
	serveHotRun     = 16
	serveHotCompile = 8
	// serveColdShare is the part of the mix that misses the cache: the
	// miss and job requests of each block of ten.
	serveColdShare = 0.3
	// serveNominalRPS is the fixed rate the latency metrics are taken at.
	serveNominalRPS = 200
	// serveSLO bounds the p99 latency of every request at a ladder rate.
	serveSLO = 100 * time.Millisecond
	// The ladder of offered rates is serveLadderBase·serveLadderStep^k for
	// k = 0..serveLadderTop; max_rate_rps is the highest rate on it that
	// meets the SLO with no failures and no growing backlog.
	serveLadderBase  = 100.0
	serveLadderStep  = 1.05
	serveLadderTop   = 50
	serveLadderTries = 7
	// serveNominalShare is the part of --seconds spent at the nominal rate;
	// the rest is cut into serveLadderProbes probe lengths (a typical
	// ladder takes seven to ten probes, counting repeats of failed rates).
	serveNominalShare = 0.4
	serveLadderProbes = 10
)

var servePrograms = []string{"gs", "gs_rev", "jacobi", "tri"}

const (
	classHit = iota
	classMiss
	classJob
)

var classNames = []string{"hit", "miss", "job"}

// serveKey is one distinct request; its content key is its body.
type serveKey struct {
	endpoint string
	prog     *program
	n        int64
	procs    int
	mode     string
	blk      int64
	body     []byte // the endpoint's request body
	job      []byte // the POST /jobs body running the same request
}

func (k *serveKey) String() string {
	return fmt.Sprintf("%s %s/%s N=%d S=%d blk=%d", k.endpoint, k.prog.name, k.mode, k.n, k.procs, k.blk)
}

// expectation is a key's answer, computed during setup through the public
// pipeline and checked against the sequential reference.
type expectation struct {
	makespan         uint64
	messages, values int64
	programs         []string // /compile: the generated C per process
}

// serveEnv is one set-up: keys, expectations, and a warmed server.
type serveEnv struct {
	hot     []*serveKey
	cold    []*serveKey
	expect  map[*serveKey]*expectation
	hotBody [][]byte // first body seen for each hot key
	live    *liveServer
}

// serveKeys draws the hot set and the cold pool from the seed. Cold keys
// are distinct from each other and from the hot set, so each one misses
// the cache of a fresh server.
func serveKeys(cfg *config, corpus map[string]*program, coldCount int) (hot, cold []*serveKey, err error) {
	rng := rngFor(cfg.seed, "serve-keys")
	seen := map[string]bool{}
	// Keys are dealt from a seeded deck holding every (program, processes,
	// mode) combination once per round, and a combination's grid size
	// comes from a different quarter of the size range each round (the
	// seed picks the order and the size within the quarter). So any whole
	// number of rounds has the same cost mix for every seed. A key dealt
	// twice gets another size.
	type shape struct {
		prog  string
		procs int
		mode  string
	}
	draw := func(endpoint string, maxN int64, procs []int, count int) ([]*serveKey, error) {
		var shapes []shape
		for _, p := range servePrograms {
			for _, s := range procs {
				for _, m := range []string{"rtr", "ctr", "opt1", "opt2", "opt3"} {
					shapes = append(shapes, shape{p, s, m})
				}
			}
		}
		idx := make([]int, len(shapes))
		offset := make([]int, len(shapes))
		for i := range idx {
			idx[i], offset[i] = i, rng.Intn(4)
		}
		order := deck(rng, idx, count)
		quarter := func(round, s int) int64 {
			q := (round + offset[s]) % 4
			lo, hi := 8+(maxN-7)*int64(q)/4, 8+(maxN-7)*int64(q+1)/4
			return lo + rng.Int63n(max(hi-lo, 1))
		}
		var keys []*serveKey
		for i := 0; i < count; i++ {
			s := order[i]
			sh := shapes[s]
			k := &serveKey{endpoint: endpoint, prog: corpus[sh.prog], n: quarter(i/len(shapes), s),
				procs: sh.procs, mode: sh.mode, blk: 8}
			if k.mode == "opt3" {
				k.blk = []int64{2, 4, 8}[rng.Intn(3)]
			}
			for tries := 0; seen[k.String()]; tries++ {
				if tries == 100 {
					return nil, fmt.Errorf("cannot draw %d distinct keys", count)
				}
				k.n = 8 + rng.Int63n(maxN-7)
			}
			seen[k.String()] = true
			req := serve.Request{Source: k.prog.src, Entry: k.prog.entry, Procs: k.procs,
				Mode: k.mode, Blk: k.blk, Defines: k.prog.defines(k.n)}
			var err error
			if k.body, err = json.Marshal(req); err != nil {
				return nil, err
			}
			if k.job, err = json.Marshal(serve.JobSubmit{Endpoint: "/run", Request: req}); err != nil {
				return nil, err
			}
			keys = append(keys, k)
		}
		return keys, nil
	}
	hotN, coldN := int64(32), int64(48)
	if cfg.tiny {
		hotN, coldN = 12, 12
	}
	hotProcs := []int{1, 2, 4, 8}
	if hot, err = draw("/run", hotN, hotProcs, serveHotRun); err != nil {
		return nil, nil, err
	}
	compiles, err := draw("/compile", hotN, hotProcs, serveHotCompile)
	if err != nil {
		return nil, nil, err
	}
	hot = append(hot, compiles...)
	cold, err = draw("/run", coldN, []int{1, 2, 3, 4, 6, 8}, coldCount)
	return hot, cold, err
}

// serveInput is the grid the server fills every matrix parameter with.
func serveInput(p *program, n int64) *input {
	in := &input{name: p.param, n: n, vals: make([]float64, n*n), def: make([]bool, n*n)}
	for i := int64(1); i <= n; i++ {
		for j := int64(1); j <= n; j++ {
			in.vals[(i-1)*n+j-1] = float64((i*31+j*17)%29) + 0.5
			in.def[(i-1)*n+j-1] = true
		}
	}
	return in
}

// expectAll computes every key's expectation on nproc goroutines. The
// sequential reference depends only on the program and the grid, so it is
// computed once per (program, N).
func expectAll(keys []*serveKey) (map[*serveKey]*expectation, error) {
	type refKey struct {
		prog string
		n    int64
	}
	var mu sync.Mutex
	refs := map[refKey]*istruct.Matrix{}
	out := make([]*expectation, len(keys))
	errs := make([]error, len(keys))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(keys) {
					return
				}
				k := keys[i]
				c, err := compile(nil, 0, 0, k.prog, k.n, k.procs, k.mode, k.blk, nil)
				if err != nil {
					errs[i] = err
					continue
				}
				if k.endpoint == "/compile" {
					e := &expectation{}
					for _, p := range c.progs {
						e.programs = append(e.programs, spmd.FormatC(p))
					}
					out[i] = e
					continue
				}
				in := serveInput(k.prog, k.n)
				m, err := in.matrix()
				if err != nil {
					errs[i] = err
					continue
				}
				res, err := exec.RunSPMD(c.progs, machine.DefaultConfig(k.procs), map[string]*istruct.Matrix{in.name: m})
				if err != nil {
					errs[i] = err
					continue
				}
				rk := refKey{k.prog.name, k.n}
				mu.Lock()
				want := refs[rk]
				mu.Unlock()
				if want == nil {
					if want, err = reference(nil, 0, 0, k.prog, c.info, in); err != nil {
						errs[i] = err
						continue
					}
					mu.Lock()
					refs[rk] = want
					mu.Unlock()
				}
				if err := sameMatrix(want, res.Arrays[k.prog.out]); err != nil {
					errs[i] = fmt.Errorf("wrong answer: %w", err)
					continue
				}
				out[i] = &expectation{makespan: res.Stats.Makespan, messages: res.Stats.Messages, values: res.Stats.Values}
			}
		}()
	}
	wg.Wait()
	m := map[*serveKey]*expectation{}
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("expectation for %s: %w", k, errs[i])
		}
		m[k] = out[i]
	}
	return m, nil
}

// liveServer is one pdserve instance behind a loopback listener.
type liveServer struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	dir    string
	client *http.Client
	served chan struct{} // closed when the HTTP server's loop returns
}

// startServer boots a server on a fresh, empty cache directory.
func startServer(cfg *config) (*liveServer, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "serve-cache-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: nproc(), CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(),
		dir: dir, served: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: nproc(), MaxIdleConnsPerHost: nproc()}}}
	go func() {
		defer close(ls.served)
		ls.hs.Serve(ln)
	}()
	for t0 := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		resp, err := ls.client.Get(ls.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return ls, nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			ls.stop()
			return nil, fmt.Errorf("server never became ready: %v", err)
		}
	}
}

// drain shuts the server down gracefully, scrapes /metrics over the wire,
// reconciles the scrape with the server's own ledger, and stops the
// listener.
func (ls *liveServer) drain() (*obs.Scrape, error) {
	defer ls.stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ls.srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	resp, err := ls.client.Get(ls.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		return nil, err
	}
	if err := ls.srv.VerifyMetrics(); err != nil {
		return sc, fmt.Errorf("metrics do not reconcile: %w", err)
	}
	return sc, nil
}

// stop closes the listener, waits for the HTTP loop, and removes the cache
// directory.
func (ls *liveServer) stop() {
	ls.srv.Close()
	ls.hs.Close()
	<-ls.served
	ls.client.CloseIdleConnections()
	os.RemoveAll(ls.dir)
}

// warm sends each hot key once so later requests for it are cache hits,
// and records (or checks) the first body each key produced.
func (e *serveEnv) warm(ls *liveServer) error {
	for i, k := range e.hot {
		code, hdr, body, err := post(ls.client, ls.base+k.endpoint, k.body)
		if err != nil {
			return err
		}
		if code != http.StatusOK || hdr.Get("X-Cache") != "miss" {
			return fmt.Errorf("warm %s: status %d, X-Cache %q", k, code, hdr.Get("X-Cache"))
		}
		if err := e.check(k, body); err != nil {
			return fmt.Errorf("warm %s: %w", k, err)
		}
		if e.hotBody[i] == nil {
			e.hotBody[i] = body
		} else if !bytes.Equal(e.hotBody[i], body) {
			return fmt.Errorf("warm %s: body differs from the first server's", k)
		}
	}
	return nil
}

// check compares a 200 body with the key's expectation.
func (e *serveEnv) check(k *serveKey, body []byte) error {
	want := e.expect[k]
	if k.endpoint == "/compile" {
		var got serve.CompileResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if len(got.Programs) != len(want.programs) {
			return fmt.Errorf("%d programs, expected %d", len(got.Programs), len(want.programs))
		}
		for i := range got.Programs {
			if got.Programs[i] != want.programs[i] {
				return fmt.Errorf("generated code of process %d differs", i)
			}
		}
		return nil
	}
	var got serve.RunResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Makespan != want.makespan || got.Messages != want.messages || got.Values != want.values {
		return fmt.Errorf("(makespan, messages, values) = (%d, %d, %d), expected (%d, %d, %d)",
			got.Makespan, got.Messages, got.Values, want.makespan, want.messages, want.values)
	}
	return nil
}

func post(c *http.Client, url string, body []byte) (int, http.Header, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

func get(c *http.Client, url string) (int, []byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// plan is one scheduled request.
type plan struct {
	due   time.Duration
	class int
	key   *serveKey
	hot   int // index into the hot set for classHit
}

// schedule lays out rate·seconds requests at a fixed spacing with seeded
// classes; cold requests take the pool's keys in order.
func (e *serveEnv) schedule(seed uint64, purpose string, rate, seconds float64) ([]plan, error) {
	rng := rngFor(seed, purpose)
	n := int(rate * seconds)
	plans := make([]plan, n)
	next := 0
	// Classes are dealt in seeded blocks of ten (7 hit, 2 miss, 1 job), so
	// the mix holds over every short stretch of the schedule and a seed
	// cannot bunch up cold requests.
	block := []int{classHit, classHit, classHit, classHit, classHit, classHit, classHit,
		classMiss, classMiss, classJob}
	for i := range plans {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		p := plan{due: time.Duration(float64(i) / rate * float64(time.Second)), class: block[i%len(block)]}
		switch p.class {
		case classHit:
			p.hot = rng.Intn(len(e.hot))
			p.key = e.hot[p.hot]
		default:
			if next >= len(e.cold) {
				return nil, fmt.Errorf("cold pool of %d keys exhausted at %.0f req/s", len(e.cold), rate)
			}
			p.key = e.cold[next]
			next++
		}
		plans[i] = p
	}
	return plans, nil
}

// outcome is one request's result.
type outcome struct {
	class    int
	lat, lag time.Duration
	done     bool
	err      error
}

// drive runs the schedule over at most nproc connections. A sender takes
// the next due request, waits until it is due, and sends it; lag is how
// late it went out. With abortAt > 0, the run stops dispatching once any
// request takes longer than that: the rate has already failed.
func (e *serveEnv) drive(ls *liveServer, plans []plan, tr *tracer, abortAt time.Duration) []outcome {
	outs := make([]outcome, len(plans))
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(plans) {
					return
				}
				p := plans[i]
				due := start.Add(p.due)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				o := outcome{class: p.class, lag: time.Since(due), done: true}
				op := int64(i) + 1
				root := tr.begin(op, 0, "request."+classNames[p.class])
				o.err = e.do(ls, p, tr, op, root, func() { o.lat = time.Since(due) })
				tr.end(root)
				outs[i] = o
				if abortAt > 0 && (o.lat > abortAt || o.err != nil) {
					aborted.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// do sends one request and checks its answer; stop marks the end of the
// latency, which for a job is its terminal event.
func (e *serveEnv) do(ls *liveServer, p plan, tr *tracer, op int64, root int, stop func()) error {
	k := p.key
	switch p.class {
	case classHit, classMiss:
		s := tr.begin(op, root, "http."+k.endpoint)
		code, hdr, body, err := post(ls.client, ls.base+k.endpoint, k.body)
		tr.end(s)
		stop()
		if err != nil {
			return err
		}
		want := "miss"
		if p.class == classHit {
			want = "hit"
		}
		if code != http.StatusOK || hdr.Get("X-Cache") != want {
			return fmt.Errorf("%s: status %d, X-Cache %q, want 200 %s", k, code, hdr.Get("X-Cache"), want)
		}
		s = tr.begin(op, root, "bench.check")
		defer tr.end(s)
		if p.class == classHit && !bytes.Equal(body, e.hotBody[p.hot]) {
			return &wrongAnswer{fmt.Errorf("%s: hot body differs from the first body for its key", k)}
		}
		return e.checkAnswer(k, body)
	}
	s := tr.begin(op, root, "http./jobs")
	code, _, body, err := post(ls.client, ls.base+"/jobs", k.job)
	tr.end(s)
	if err != nil {
		return err
	}
	var acc serve.JobAccepted
	if code != http.StatusAccepted {
		return fmt.Errorf("job %s: status %d", k, code)
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		return err
	}
	s = tr.begin(op, root, "http.events")
	terminal, err := followEvents(ls.client, ls.base+"/jobs/"+acc.ID+"/events")
	tr.end(s)
	stop()
	if err != nil {
		return fmt.Errorf("job %s: %w", k, err)
	}
	if terminal.Type != "done" {
		return fmt.Errorf("job %s ended %q: %s", k, terminal.Type, terminal.Message)
	}
	s = tr.begin(op, root, "http.result")
	code, body, err = get(ls.client, ls.base+"/jobs/"+acc.ID)
	tr.end(s)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("job %s result: status %d", k, code)
	}
	s = tr.begin(op, root, "bench.check")
	defer tr.end(s)
	return e.checkAnswer(k, body)
}

// checkAnswer is check with its failure marked as a wrong answer.
func (e *serveEnv) checkAnswer(k *serveKey, body []byte) error {
	if err := e.check(k, body); err != nil {
		return &wrongAnswer{fmt.Errorf("%s: %w", k, err)}
	}
	return nil
}

// followEvents reads a job's NDJSON event stream to its terminal event.
func followEvents(c *http.Client, url string) (serve.Event, error) {
	resp, err := c.Get(url)
	if err != nil {
		return serve.Event{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return serve.Event{}, fmt.Errorf("events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return ev, err
		}
		if ev.Terminal {
			io.Copy(io.Discard, resp.Body)
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return serve.Event{}, err
	}
	return serve.Event{}, errors.New("event stream ended without a terminal event")
}

// phaseStats summarizes one driven schedule.
type phaseStats struct {
	n, failed int
	all       []float64 // latency ms, failures excluded
	byClass   [3][]float64
	lag       []float64
}

// summarize splits the outcomes; a request never sent (an aborted probe)
// counts as failed.
func summarize(outs []outcome) phaseStats {
	var ps phaseStats
	for _, o := range outs {
		ps.n++
		if !o.done || o.err != nil {
			ps.failed++
			continue
		}
		l := ms(o.lat)
		ps.all = append(ps.all, l)
		ps.byClass[o.class] = append(ps.byClass[o.class], l)
		ps.lag = append(ps.lag, ms(o.lag))
	}
	return ps
}

// backlogGrows reports whether the generator fell further behind over the
// probe: the mean lag of its last quarter exceeds that of its first
// quarter by more than a quarter of the SLO. A queue that keeps up only
// fluctuates by a few milliseconds; one that does not falls behind by
// (rate − capacity) × elapsed time.
func backlogGrows(outs []outcome) bool {
	q := len(outs) / 4
	if q == 0 {
		return false
	}
	mean := func(os []outcome) float64 {
		t := 0.0
		for _, o := range os {
			t += ms(o.lag)
		}
		return t / float64(len(os))
	}
	return mean(outs[len(outs)-q:]) > mean(outs[:q])+ms(serveSLO)/4
}

// probe offers one ladder rate to a fresh server and reports whether it
// held: p99 within the SLO with failures counted as over it, no failed
// request, and no growing backlog.
func (e *serveEnv) probe(cfg *config, k int, seconds float64, res *result) (bool, string, error) {
	rate := ladderRate(k)
	ls, err := startServer(cfg)
	if err != nil {
		return false, "", err
	}
	if err := e.warm(ls); err != nil {
		ls.stop()
		res.fail("ladder %.0f req/s: %v", rate, err)
		return false, "", nil
	}
	plans, err := e.schedule(cfg.seed, fmt.Sprintf("serve-ladder-%d", k), rate, seconds)
	if err != nil {
		ls.stop()
		return false, "", err
	}
	outs := e.drive(ls, plans, nil, 10*serveSLO)
	if _, err := ls.drain(); err != nil {
		res.fail("ladder %.0f req/s: %v", rate, err)
	}
	ps := summarize(outs)
	res.attempted += ps.n
	for _, o := range outs {
		// A wrong answer fails the run at any rate; slowness and refusals
		// above capacity only fail the rate.
		var wrong *wrongAnswer
		if errors.As(o.err, &wrong) {
			res.fail("ladder %.0f req/s: %v", rate, o.err)
		}
	}
	lat := append([]float64(nil), ps.all...)
	for i := 0; i < ps.failed; i++ {
		lat = append(lat, math.Inf(1))
	}
	p99, _ := quantile(lat, 0.99)
	grows := backlogGrows(outs)
	ok := ps.failed == 0 && p99 <= ms(serveSLO) && !grows
	return ok, fmt.Sprintf("%7.1f req/s: n=%d failed=%d p99=%.2fms backlog_grows=%v pass=%v",
		rate, ps.n, ps.failed, p99, grows, ok), nil
}

// wrongAnswer marks a response whose content is wrong, as opposed to
// late or refused.
type wrongAnswer struct{ err error }

func (w *wrongAnswer) Error() string { return w.err.Error() }
func (w *wrongAnswer) Unwrap() error { return w.err }

func ladderRate(k int) float64 { return serveLadderBase * math.Pow(serveLadderStep, float64(k)) }

// ladder finds the highest passing rung: it steps up from the rung nearest
// four times the nominal rate until a rung fails, then bisects.
func (e *serveEnv) ladder(cfg *config, step float64, res *result) (float64, error) {
	lo, hi := -1, serveLadderTop+1
	k := int(math.Round(math.Log(4*serveNominalRPS/serveLadderBase) / math.Log(serveLadderStep)))
	jump := 4
	for try := 0; try < serveLadderTries && hi-lo > 1; try++ {
		// A rate fails only when a second probe on a fresh server fails
		// too: one stall of the host must not decide the capacity.
		ok := false
		for attempt := 0; attempt < 2 && !ok; attempt++ {
			var line string
			var err error
			ok, line, err = e.probe(cfg, k, step, res)
			if err != nil {
				return 0, err
			}
			fmt.Fprintf(cfg.log, "ladder %s\n", line)
		}
		if ok {
			lo = k
		} else {
			hi = k
		}
		switch {
		case hi > serveLadderTop:
			k = min(lo+jump, serveLadderTop)
			jump *= 2
		case lo < 0:
			k = max(hi-jump, 0)
			jump *= 2
		default:
			k = (lo + hi) / 2
		}
		if k <= lo || k >= hi {
			break
		}
	}
	if lo < 0 {
		// Not a failed operation: even the lowest rate did not hold, and
		// the ledger says so with a rate of 0.
		fmt.Fprintf(cfg.log, "ladder: no rate met the SLO\n")
		return 0, nil
	}
	return ladderRate(lo), nil
}

func runServe(cfg *config) (*result, error) {
	res := newResult()
	nominal := cfg.seconds * serveNominalShare
	// The pool covers the nominal schedule's cold requests with a margin;
	// a ladder probe whose cold requests would outrun it fails loudly.
	coldCount := int(serveNominalRPS*nominal*serveColdShare*1.2) + 20
	setupS, env, err := medianSetup(3, func() (*serveEnv, error) {
		corpus, err := loadCorpus()
		if err != nil {
			return nil, err
		}
		hot, cold, err := serveKeys(cfg, corpus, coldCount)
		if err != nil {
			return nil, err
		}
		e := &serveEnv{hot: hot, cold: cold, hotBody: make([][]byte, len(hot))}
		if e.expect, err = expectAll(append(append([]*serveKey(nil), hot...), cold...)); err != nil {
			return nil, err
		}
		if e.live, err = startServer(cfg); err != nil {
			return nil, err
		}
		if err := e.warm(e.live); err != nil {
			e.live.stop()
			return nil, err
		}
		return e, nil
	}, func(e *serveEnv) { e.live.stop() })
	if err != nil {
		return nil, err
	}
	if cfg.perturb {
		// Negative control: one wrong expected makespan must fail a request.
		e := env.expect[env.cold[0]]
		e.makespan++
	}
	plans, err := env.schedule(cfg.seed, "serve-nominal", serveNominalRPS, nominal)
	if err != nil {
		env.live.stop()
		return nil, err
	}
	mem := readUsage()
	ps, sc := env.nominal(env.live, plans, nil, res)
	used := mem.since()
	p50, _ := quantile(ps.all, 0.5)
	p99, ok := quantile(ps.all, 0.99)
	if !ok && !cfg.tiny {
		res.fail("wall.op_tail_ms (p99) rests on %d requests; it needs 1000", len(ps.all))
	}
	res.e2e["setup_s"] = setupS
	res.e2e["cpu_ms_per_op"] = ms(used.cpu) / float64(ps.n)
	res.e2e["alloc_mb_per_op"] = float64(used.bytes) / float64(ps.n) / (1 << 20)
	step := cfg.seconds * (1 - serveNominalShare) / serveLadderProbes
	rate, err := env.ladder(cfg, step, res)
	if err != nil {
		res.fail("ladder: %v", err)
	}
	res.layer["wall.ops_per_s"] = rate
	res.layer["wall.op_p50_ms"] = p50
	res.layer["wall.op_tail_ms"] = p99
	fillServeLayers(res, &ps, sc)
	printServeClasses(cfg, &ps)
	fmt.Fprintf(cfg.log, "serve: nominal %d req/s for %.1fs (%.2f CPU-s), SLO p99 <= %v; p50 and p99 over n=%d, max_rate_rps=%.1f\n",
		serveNominalRPS, nominal, used.cpu.Seconds(), serveSLO, len(ps.all), rate)
	if cfg.trace {
		// The same schedule again on a fresh server, traced.
		live, err := startServer(cfg)
		if err != nil {
			return nil, err
		}
		if err := env.warm(live); err != nil {
			live.stop()
			return nil, err
		}
		tr := newTracer()
		res.spans = tr
		traced, _ := env.nominal(live, plans, tr, res)
		res.layer["bench.trace_overhead_ratio"] = mean(traced.all)/mean(ps.all) - 1
		fillSpanLayers(res, tr)
	}
	// The exact values: the simulated cost of the cold requests the nominal
	// schedule served.
	var mk []float64
	var msgs, vals int64
	for _, p := range plans {
		if p.class == classHit {
			continue
		}
		want := env.expect[p.key]
		mk = append(mk, float64(want.makespan))
		msgs += want.messages
		vals += want.values
	}
	res.e2e["sim_cycles_geomean"] = geomean(mk)
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.exact["sim_cycles_geomean"] = res.e2e["sim_cycles_geomean"]
	res.exact["machine.messages"] = float64(msgs)
	res.exact["machine.values"] = float64(vals)
	res.layer["machine.messages"] = float64(msgs)
	res.layer["machine.values"] = float64(vals)
	return res, nil
}

// nominal drives the schedule at the nominal rate, drains the server, and
// returns the latencies and the /metrics scrape. Every failure counts.
func (e *serveEnv) nominal(ls *liveServer, plans []plan, tr *tracer, res *result) (phaseStats, *obs.Scrape) {
	outs := e.drive(ls, plans, tr, 0)
	sc, err := ls.drain()
	if err != nil {
		res.fail("nominal: %v", err)
	}
	ps := summarize(outs)
	res.attempted += ps.n
	for _, o := range outs {
		if o.err != nil {
			res.fail("nominal: %v", o.err)
		}
	}
	return ps, sc
}

func printServeClasses(cfg *config, ps *phaseStats) {
	for c, name := range classNames {
		xs := ps.byClass[c]
		p50, _ := quantile(xs, 0.5)
		p95, ok95 := quantile(xs, 0.95)
		p99, ok99 := quantile(xs, 0.99)
		fmt.Fprintf(cfg.log, "serve %-4s n=%5d p50=%8.3fms p95=%8.3fms (enough samples: %v) p99=%8.3fms (enough samples: %v)\n",
			name, len(xs), p50, p95, ok95, p99, ok99)
	}
	lag, _ := quantile(ps.lag, 0.99)
	fmt.Fprintf(cfg.log, "serve generator lag p99=%.3fms\n", lag)
}

func fillServeLayers(res *result, ps *phaseStats, sc *obs.Scrape) {
	res.layer["serve.hit_p50_ms"], _ = quantile(ps.byClass[classHit], 0.5)
	res.layer["serve.hit_p99_ms"], _ = quantile(ps.byClass[classHit], 0.99)
	res.layer["serve.miss_p50_ms"], _ = quantile(ps.byClass[classMiss], 0.5)
	res.layer["serve.miss_p95_ms"], _ = quantile(ps.byClass[classMiss], 0.95)
	res.layer["serve.job_p50_ms"], _ = quantile(ps.byClass[classJob], 0.5)
	res.layer["bench.gen_lag_p99_ms"], _ = quantile(ps.lag, 0.99)
	if sc == nil {
		return
	}
	meanMS := func(hist string) float64 {
		if n := sc.Sum(hist+"_count", nil); n > 0 {
			return 1000 * sc.Sum(hist+"_sum", nil) / n
		}
		return 0
	}
	hits := sc.Sum("pdserve_cache_ops_total", map[string]string{"op": "hit"})
	misses := sc.Sum("pdserve_cache_ops_total", map[string]string{"op": "miss"})
	res.layer["serve.queue_wait_ms"] = meanMS("pdserve_queue_wait_seconds")
	res.layer["serve.worker_busy_s"] = sc.Sum("pdserve_worker_busy_seconds_total", nil)
	res.layer["serve.sheds"] = sc.Sum("pdserve_sheds_total", nil)
	res.layer["serve.cache_hits"] = hits
	res.layer["serve.cache_misses"] = misses
	if hits+misses > 0 {
		res.layer["serve.hit_ratio"] = hits / (hits + misses)
	}
	res.layer["serve.cache_writes"] = sc.Sum("pdserve_cache_ops_total", map[string]string{"op": "write"})
	res.layer["serve.cache_bytes"] = sc.Sum("pdserve_cache_bytes", nil)
	res.layer["serve.journal_appends"] = sc.Sum("pdserve_journal_appends_total", nil)
	res.layer["serve.journal_fsync_ms"] = meanMS("pdserve_journal_fsync_seconds")
}
