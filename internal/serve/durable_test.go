package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"procdecomp/internal/adapt"
)

// logSchema drives one journal through its recordLog for the table below.
type logSchema struct {
	name string
	file string
	// records fold: appended with a threshold of foldAt, the log folds once
	// and the records after the fold land on the installed file.
	records []any
	foldAt  int
	// open opens the journal and summarizes what it recovered, one line per
	// job or scenario, so two opens can be compared.
	open func(t *testing.T, dir string, every int, onCompact func()) (appendCloser, bool, []string)
}

type appendCloser interface {
	Append(rec any) error
	Close()
}

func jobSchema() logSchema {
	req := Request{GS: true, Procs: 2, Mode: "ctr", Entry: "gs_iteration"}
	return logSchema{
		name: "jobs", file: journalName, foldAt: 4,
		records: []any{
			journalRec{Op: "accepted", ID: jobID(1), Endpoint: "/run", Key: "k1", Req: &req},
			journalRec{Op: "running", ID: jobID(1)},
			journalRec{Op: "running", ID: jobID(1)},
			journalRec{Op: "done", ID: jobID(1), Key: "k1"},
			journalRec{Op: "accepted", ID: jobID(2), Endpoint: "/run", Key: "k2", Req: &req},
			journalRec{Op: "failed", ID: jobID(2), Kind: KindPanic, Message: "boom", Attempts: 3},
		},
		open: func(t *testing.T, dir string, every int, onCompact func()) (appendCloser, bool, []string) {
			t.Helper()
			l, jobs, maxSeq, err := openJournal(dir, every)
			if err != nil {
				t.Fatal(err)
			}
			l.onCompact = onCompact
			sum := []string{fmt.Sprintf("maxSeq=%d", maxSeq)}
			for _, rj := range jobs {
				sum = append(sum, fmt.Sprintf("%s done=%v err=%+v", rj.id, rj.done, rj.jerr))
			}
			return l, l.compacted, sum
		},
	}
}

func decisionSchema() logSchema {
	dec := func(seq uint64, scenario, shape, outcome, mapping string) adapt.Decision {
		return adapt.Decision{Seq: seq, Scenario: scenario, Cause: "shift", Shape: shape,
			Outcome: outcome, Mapping: mapping}
	}
	return logSchema{
		name: "decisions", file: adaptJournalName, foldAt: 4,
		records: []any{
			dec(1, "gs//p2", "ctr/b0,N=12", "switched", "all"),
			dec(2, "gs//p4", "ctr/b0,N=24", "held", ""),
			dec(3, "gs//p2", "ctr/b0,N=16", "failed", "all"),
			dec(4, "gs//p2", "ctr/b0,N=8", "switched", "cyclic_cols"),
			dec(5, "gs//p4", "ctr/b0,N=32", "switched", "all"),
		},
		open: func(t *testing.T, dir string, every int, onCompact func()) (appendCloser, bool, []string) {
			t.Helper()
			l, states, maxSeq, err := openDecisionJournal(dir, every)
			if err != nil {
				t.Fatal(err)
			}
			l.onCompact = onCompact
			sum := []string{fmt.Sprintf("maxSeq=%d", maxSeq)}
			for _, st := range states {
				sum = append(sum, fmt.Sprintf("%+v", st))
			}
			return l, l.compacted, sum
		},
	}
}

// lines renders records as the NDJSON a recordLog appends.
func lines(t *testing.T, recs ...any) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range recs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(b, '\n'))
	}
	return buf.Bytes()
}

// Both journals ride one recordLog, so its recovery and fold contract is
// checked through each schema: a torn tail is quarantined and never
// re-parsed; a threshold fold keeps appending on the installed file and a
// reopen recovers every record; an already-folded log is not rewritten at
// open; and no temp file is left behind.
func TestRecordLogThroughBothSchemas(t *testing.T) {
	for _, sc := range []logSchema{jobSchema(), decisionSchema()} {
		t.Run(sc.name, func(t *testing.T) {
			t.Run("torn tail", func(t *testing.T) {
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
					t.Fatal(err)
				}
				intact := lines(t, sc.records...)
				torn := []byte(`{"Op":"accepted","Scenario":"gs//p9","ID":"j000000000000dead","Req":{"GS":tr`)
				path := filepath.Join(dir, sc.file)
				if err := os.WriteFile(path, append(append([]byte(nil), intact...), torn...), 0o644); err != nil {
					t.Fatal(err)
				}
				l, compacted, got := sc.open(t, dir, 0, nil)
				l.Close()
				if !compacted {
					t.Error("open with a torn tail did not rewrite the log")
				}
				tornPath := filepath.Join(dir, quarantineDir, sc.file+".torn")
				if q, err := os.ReadFile(tornPath); err != nil || !bytes.Equal(q, torn) {
					t.Fatalf("quarantined tail = %q (err %v), want the torn bytes", q, err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Contains(raw, []byte("dead")) || !bytes.HasSuffix(raw, []byte("\n")) {
					t.Errorf("rewritten log still holds torn bytes:\n%s", raw)
				}
				// A reopen finds nothing to quarantine and the same state.
				if err := os.Remove(tornPath); err != nil {
					t.Fatal(err)
				}
				l2, compacted2, got2 := sc.open(t, dir, 0, nil)
				l2.Close()
				if compacted2 {
					t.Error("reopen rewrote an already-recovered log")
				}
				if _, err := os.Stat(tornPath); !os.IsNotExist(err) {
					t.Errorf("reopen quarantined again (stat err %v)", err)
				}
				if fmt.Sprint(got2) != fmt.Sprint(got) {
					t.Errorf("reopen recovered %v, want %v", got2, got)
				}
			})

			t.Run("threshold fold", func(t *testing.T) {
				// The reference state: every record appended with no runtime fold.
				want := recoverAfterAppends(t, sc)
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
					t.Fatal(err)
				}
				folds := 0
				l, _, _ := sc.open(t, dir, sc.foldAt, func() { folds++ })
				for _, r := range sc.records {
					if err := l.Append(r); err != nil {
						t.Fatal(err)
					}
				}
				l.Close() // the writer goroutine has exited: folds is safe to read
				if folds != 1 {
					t.Fatalf("%d threshold folds, want 1", folds)
				}
				// The records after the fold went to the installed file, so a
				// reopen sees them alongside the folded ones.
				l2, _, got := sc.open(t, dir, sc.foldAt, nil)
				l2.Close()
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("reopen after fold recovered\n%v\nwant\n%v", got, want)
				}
				if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+cacheTmpSuffix)); len(tmps) > 0 {
					t.Errorf("temp files left behind: %v", tmps)
				}
			})

			t.Run("folded log kept", func(t *testing.T) {
				dir := t.TempDir()
				if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join(dir, sc.file)
				if err := os.WriteFile(path, lines(t, sc.records...), 0o644); err != nil {
					t.Fatal(err)
				}
				l, compacted, _ := sc.open(t, dir, 0, nil) // folds the raw records
				l.Close()
				if !compacted {
					t.Fatal("open did not fold an unfolded log")
				}
				before, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				folded, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				l2, compacted2, _ := sc.open(t, dir, 0, nil)
				l2.Close()
				after, err := os.Stat(path)
				if err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if compacted2 || !os.SameFile(before, after) || !bytes.Equal(raw, folded) {
					t.Errorf("open rewrote an already-folded log (compacted=%v, same inode=%v)",
						compacted2, os.SameFile(before, after))
				}
				if tmps, _ := filepath.Glob(filepath.Join(dir, "*"+cacheTmpSuffix)); len(tmps) > 0 {
					t.Errorf("temp files left behind: %v", tmps)
				}
			})
		})
	}
}

// recoverAfterAppends appends every record of sc to a fresh log that never
// folds at runtime and returns what a reopen recovers.
func recoverAfterAppends(t *testing.T, sc logSchema) []string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		t.Fatal(err)
	}
	l, _, _ := sc.open(t, dir, 0, nil)
	for _, r := range sc.records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, _, got := sc.open(t, dir, 0, nil)
	l2.Close()
	return got
}

// A decision the journal fails to write is still settled and served, and
// the failure is counted and logged like a job-journal append's.
func TestDecisionJournalWriteErrorsCounted(t *testing.T) {
	s, hs := newTestServer(t, adaptTestConfig(t.TempDir()))
	s.adaptJournal.crash()
	for _, body := range []string{adaptBaseRun, adaptBaseRun, adaptBaseRun, adaptBaseRun,
		adaptShiftRun, adaptShiftRun, adaptShiftRun, adaptShiftRun} {
		if resp, b := post(t, hs.URL+"/run", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("run: status %d: %s", resp.StatusCode, b)
		}
	}
	ar := waitAdaptSettled(t, hs.URL, 1)
	if len(ar.Decisions) != 1 {
		t.Fatalf("decisions = %+v, want exactly 1", ar.Decisions)
	}
	if got := s.m.journalErrors.Value("adapt"); got != 1 {
		t.Errorf("journal errors{site=adapt} = %v, want 1", got)
	}
	if lines := s.ring.Lines(""); !bytes.Contains([]byte(fmt.Sprint(lines)), []byte("journal append failed")) {
		t.Error("failed decision append was not logged")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Fatal(err)
	}
}
