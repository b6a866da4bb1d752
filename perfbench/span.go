package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call. Spans of one operation (a figures job, a search, a served request)
// share Op; Parent is the enclosing span's ID (0 for an operation's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per layer call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID; end closes it. parent is the ID of
// the enclosing span, 0 at an operation's root.
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was observed elsewhere, such as
// between two progress reports.
func (t *tracer) record(op int64, parent int, name string, start, end time.Time) {
	if t == nil || start.IsZero() || end.IsZero() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// layerTime is the aggregate of one span name: how many calls, their total
// duration, and their self time (duration minus the part covered by child
// spans).
type layerTime struct {
	Name    string  `json:"name"`
	Calls   int     `json:"calls"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates the recorded spans by name. The benchmark makes the
// calls inside one span one after another, so a span's children never
// overlap and its self time is its duration minus theirs.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		lt.Calls++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(s.End-s.Start-covered[s.ID]) / 1e6
	}
	return out
}

// write dumps the spans and their per-name self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	st := t.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	layers := make([]*layerTime, 0, len(names))
	for _, n := range names {
		layers = append(layers, st[n])
	}
	t.mu.Lock()
	doc := struct {
		Layers []*layerTime `json:"layers"`
		Spans  []span       `json:"spans"`
	}{layers, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
