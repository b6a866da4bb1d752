package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI's report must be deterministic down to the byte, in both text and
// JSON form — the property CI relies on when it diffs artifacts.
func TestSearchOutputByteIdentical(t *testing.T) {
	render := func(args ...string) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := run(context.Background(), args, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	args := []string{"-gs", "-procs", "4", "-D", "N=12", "-topk", "3"}
	a, b := render(args...), render(args...)
	if !bytes.Equal(a, b) {
		t.Fatal("identical searches produced different text reports")
	}
	if !strings.Contains(string(a), "winner:") {
		t.Fatalf("report names no winner:\n%s", a)
	}

	j1, j2 := render(append(args, "-json")...), render(append(args, "-json")...)
	if !bytes.Equal(j1, j2) {
		t.Fatal("identical searches produced different JSON reports")
	}
	var rep struct {
		Winner string
		Hand   string
		Regret uint64
	}
	if err := json.Unmarshal(j1, &rep); err != nil {
		t.Fatalf("JSON report does not parse: %v", err)
	}
	if rep.Winner == "" || rep.Hand == "" {
		t.Fatalf("JSON report missing winner or reference: %+v", rep)
	}
}

// Flag validation: contradictory sources and unknown dists fail cleanly.
func TestBadInvocations(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-gs", "-file", "x.idn"}, &buf); err == nil {
		t.Error("-gs with -file accepted")
	}
	if err := run(context.Background(), []string{"-gs", "-dist", "NoSuch", "-D", "N=8"}, &buf); err == nil {
		t.Error("unknown -dist accepted")
	}
	if err := run(context.Background(), []string{"-gs", "-kinds", "bogus", "-D", "N=8"}, &buf); err == nil {
		t.Error("unknown -kinds entry accepted")
	}
}

// -cpuprofile and -memprofile write non-empty pprof files around a search.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var buf bytes.Buffer
	args := []string{"-gs", "-procs", "4", "-D", "N=8", "-topk", "2", "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(context.Background(), args, &buf); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: missing or empty profile (%v)", path, err)
		}
	}
	if err := run(context.Background(), []string{"-gs", "-cpuprofile", filepath.Join(dir, "no", "such", "cpu.out")}, &buf); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
}
