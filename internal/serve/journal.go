package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The job journal is the durability half of the async-job contract: a
// request POSTed to /jobs is acknowledged only after its "accepted" record
// (carrying the full normalized request) is fsynced to an append-only
// NDJSON file, and every job later appends exactly one terminal record —
// "done" with its content key, or "failed" with its typed error. A server
// killed at any instant can therefore reconstruct every acknowledged job on
// restart: terminal jobs are served from the journal plus the result cache,
// and accepted-but-unfinished jobs are re-enqueued and re-run.
//
// Crash safety follows the same discipline as the disk cache:
//
//   - records are appended with a group-commit writer (one fsync covers a
//     batch of concurrent appends) and a record is only acknowledged after
//     its batch is durable;
//   - on open, a torn tail — the partial last line a kill mid-append leaves
//     — is quarantined to the cache's quarantine directory and the journal
//     is compacted to its valid prefix via a temp-file+rename rewrite, so
//     recovery never re-parses (or trusts) torn bytes.

const (
	journalName     = "jobs.journal"
	journalTornName = "jobs.journal.torn"
)

// journalRec is one NDJSON journal line.
type journalRec struct {
	Op       string   // "accepted", "running", "done", "failed"
	ID       string   // job ID
	RID      string   `json:",omitempty"` // accepted: originating request ID
	Endpoint string   `json:",omitempty"` // accepted: target pipeline
	Tenant   string   `json:",omitempty"` // accepted: fair-share account
	Key      string   `json:",omitempty"` // accepted/done: content key
	Budget   int      `json:",omitempty"` // accepted: degraded /search budget
	Mapping  string   `json:",omitempty"` // accepted: adaptive mapping preference
	Req      *Request `json:",omitempty"` // accepted: normalized request
	Kind     ErrKind  `json:",omitempty"` // failed: error kind
	Message  string   `json:",omitempty"` // failed: error message
	Attempts int      `json:",omitempty"` // failed: evaluation attempts
}

type journalAppend struct {
	line []byte
	done chan error
}

// journal is the append side: a single writer goroutine drains a channel of
// pending records, writes them in one syscall, fsyncs once, and then
// acknowledges the whole batch — group commit, so thousands of concurrent
// accepts do not serialize on per-record fsyncs.
type journal struct {
	path string
	dir  string
	// compacted records whether open found anything to rewrite (a torn tail
	// or droppable records) — surfaced as a metric by the server.
	compacted bool
	// compactEvery folds the journal in place after that many runtime
	// appends (0 = only at open); appended counts records since the last
	// fold. Both are touched only on the writer goroutine.
	compactEvery int
	appended     int
	// onCompact, when set, observes each runtime threshold compaction. Set
	// before the first Append; never mutated after.
	onCompact func()
	// onFsync, when set, observes each group-commit fsync's latency. Set
	// before the first Append; never mutated after.
	onFsync func(time.Duration)

	mu     sync.Mutex
	f      *os.File
	dead   bool // crashed or closed: appends fail, nothing more is written
	wg     sync.WaitGroup
	writes chan journalAppend
}

// Append journals one record durably: it returns once the record (and any
// batchmates) has been fsynced, or an error if the journal is closed.
func (j *journal) Append(rec journalRec) error {
	if j == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	a := journalAppend{line: append(line, '\n'), done: make(chan error, 1)}
	j.mu.Lock()
	if j.dead {
		j.mu.Unlock()
		return fmt.Errorf("serve: journal closed")
	}
	j.writes <- a
	j.mu.Unlock()
	return <-a.done
}

// run is the group-commit writer.
func (j *journal) run() {
	defer j.wg.Done()
	for a := range j.writes {
		batch := []journalAppend{a}
	drain:
		for len(batch) < 512 {
			select {
			case b, ok := <-j.writes:
				if !ok {
					break drain
				}
				batch = append(batch, b)
			default:
				break drain
			}
		}
		var buf bytes.Buffer
		for _, b := range batch {
			buf.Write(b.line)
		}
		_, err := j.f.Write(buf.Bytes())
		if err == nil {
			t0 := time.Now()
			err = j.f.Sync()
			if j.onFsync != nil {
				j.onFsync(time.Since(t0))
			}
		}
		for _, b := range batch {
			b.done <- err
		}
		j.appended += len(batch)
		if err == nil {
			j.maybeCompact()
		}
	}
}

// maybeCompact folds the journal in place once compactEvery records have been
// appended since the last fold. It runs on the writer goroutine between
// batches — no append is in flight — and the swap is crash-safe: the
// compacted image goes to a temp file that stays open, so the rename either
// installs it (and appends continue on that same fd) or fails and leaves the
// journal untouched. Any error just skips the fold: compaction is an
// optimization, never a reason to fail an acknowledged append.
func (j *journal) maybeCompact() {
	if j.compactEvery <= 0 || j.appended < j.compactEvery {
		return
	}
	j.appended = 0
	jobs, _, valid, torn, err := parseJournal(j.path)
	if err != nil || len(torn) > 0 {
		return // unreadable or foreign bytes: leave folding to the next open
	}
	buf, err := foldJobs(jobs)
	if err != nil || buf.Len() >= len(valid) {
		return // nothing to fold away
	}
	tmp, err := createTemp(j.dir, journalName)
	if err != nil {
		return
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	// tmp's fd now addresses the live journal, positioned at its end; swap
	// it in under the same lock crash and Close take.
	j.mu.Lock()
	if j.dead {
		j.mu.Unlock()
		tmp.Close()
		return
	}
	old := j.f
	j.f = tmp
	j.mu.Unlock()
	old.Close()
	if j.onCompact != nil {
		j.onCompact()
	}
}

// Close flushes pending appends and closes the file. Further appends fail.
func (j *journal) Close() {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.dead {
		j.mu.Unlock()
		return
	}
	j.dead = true
	close(j.writes)
	j.mu.Unlock()
	j.wg.Wait()
	j.f.Close()
}

// crash abandons the journal without flushing — the test seam that models
// kill -9: pending and future appends error out and nothing more reaches
// disk through this handle.
func (j *journal) crash() {
	if j == nil {
		return
	}
	j.mu.Lock()
	if j.dead {
		j.mu.Unlock()
		return
	}
	j.dead = true
	close(j.writes)
	j.f.Close() // in-flight batch writes fail on the closed fd
	j.mu.Unlock()
	j.wg.Wait()
}

// recoveredJob is one job reconstructed from the journal on open.
type recoveredJob struct {
	id       string
	rid      string // originating request ID, carried for log correlation
	endpoint string
	tenant   string
	key      string
	budget   int
	mapping  string
	req      Request
	// terminal state, if the job reached one before the crash:
	done bool
	jerr *JobError // non-nil iff the job failed
	// unfinished == !done && jerr == nil: re-run it.
}

func (r *recoveredJob) unfinished() bool { return !r.done && r.jerr == nil }

// openJournal opens (creating if needed) the journal under dir, recovering
// prior state first: it parses the valid prefix, quarantines a torn tail,
// rewrites the compacted journal atomically, and returns every known job in
// acceptance order plus the highest job sequence number seen. compactEvery
// additionally folds the journal in place after that many runtime appends
// (0 disables runtime folding; open always compacts).
func openJournal(dir string, compactEvery int) (*journal, []*recoveredJob, uint64, error) {
	path := filepath.Join(dir, journalName)
	jobs, maxSeq, valid, torn, err := parseJournal(path)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(torn) > 0 {
		tornPath := filepath.Join(dir, quarantineDir, journalTornName)
		if err := os.WriteFile(tornPath, torn, 0o644); err != nil {
			return nil, nil, 0, fmt.Errorf("serve: quarantine journal tail: %w", err)
		}
	}
	// Compact: keep, per job, the accepted record and (if any) the terminal
	// record; drop "running" markers and the torn tail. Temp-file+rename, so
	// a kill mid-compaction leaves either the old journal or the new one.
	buf, err := foldJobs(jobs)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: journal compact: %w", err)
	}
	compacted := len(jobs) > 0 || len(valid) != buf.Len() || len(torn) > 0
	if compacted {
		if err := atomicRewrite(dir, path, buf.Bytes()); err != nil {
			return nil, nil, 0, fmt.Errorf("serve: journal compact: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("serve: open journal: %w", err)
	}
	j := &journal{path: path, dir: dir, compacted: compacted, compactEvery: compactEvery,
		f: f, writes: make(chan journalAppend, 1024)}
	j.wg.Add(1)
	go j.run()
	return j, jobs, maxSeq, nil
}

// foldJobs renders the compacted journal image: per job, its accepted record
// and (if it reached one) a single terminal record — "running" markers,
// duplicate terminals, and torn bytes fold away.
func foldJobs(jobs []*recoveredJob) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	for _, rj := range jobs {
		acc := journalRec{Op: "accepted", ID: rj.id, RID: rj.rid, Endpoint: rj.endpoint,
			Tenant: rj.tenant, Key: rj.key, Budget: rj.budget, Mapping: rj.mapping, Req: &rj.req}
		b, err := json.Marshal(acc)
		if err != nil {
			return nil, err
		}
		buf.Write(append(b, '\n'))
		var term *journalRec
		if rj.done {
			term = &journalRec{Op: "done", ID: rj.id, Key: rj.key}
		} else if rj.jerr != nil {
			term = &journalRec{Op: "failed", ID: rj.id, Kind: rj.jerr.Kind,
				Message: rj.jerr.Message, Attempts: rj.jerr.Attempts}
		}
		if term != nil {
			b, err := json.Marshal(*term)
			if err != nil {
				return nil, err
			}
			buf.Write(append(b, '\n'))
		}
	}
	return &buf, nil
}

// atomicRewrite replaces path with data via temp-file+rename inside dir — a
// kill at any instant leaves the old bytes or the new bytes, never a mix.
// The job journal's open-time compaction and the adapt decision journal both
// funnel their rewrites through here.
func atomicRewrite(dir, path string, data []byte) error {
	tmp, err := createTemp(dir, filepath.Base(path))
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// parseJournal reads the journal and folds its records into per-job state.
// It returns the jobs in acceptance order, the highest job sequence parsed
// from the IDs, the valid byte prefix, and any torn tail bytes.
func parseJournal(path string) (jobs []*recoveredJob, maxSeq uint64, valid, torn []byte, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, nil, nil, nil
	}
	if err != nil {
		return nil, 0, nil, nil, fmt.Errorf("serve: read journal: %w", err)
	}
	byID := map[string]*recoveredJob{}
	off := 0
loop:
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 {
			break // no trailing newline: torn tail
		}
		line := raw[off : off+nl]
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			break // garbage from here on: torn tail
		}
		switch rec.Op {
		case "accepted":
			if rec.Req == nil {
				break loop // a request-less accept is corrupt: torn tail
			}
			rj := &recoveredJob{id: rec.ID, rid: rec.RID, endpoint: rec.Endpoint,
				tenant: rec.Tenant, key: rec.Key, budget: rec.Budget, mapping: rec.Mapping, req: *rec.Req}
			if _, dup := byID[rec.ID]; !dup {
				byID[rec.ID] = rj
				jobs = append(jobs, rj)
			}
			if seq, ok := parseJobID(rec.ID); ok && seq > maxSeq {
				maxSeq = seq
			}
		case "done":
			if rj := byID[rec.ID]; rj != nil {
				rj.done, rj.jerr = true, nil
			}
		case "failed":
			if rj := byID[rec.ID]; rj != nil && !rj.done {
				rj.jerr = &JobError{Kind: rec.Kind, Message: rec.Message, Attempts: rec.Attempts}
			}
		case "running":
			// informational only; an unfinished job re-runs either way
		}
		off += nl + 1
	}
	return jobs, maxSeq, raw[:off], raw[off:], nil
}

// jobID formats and parseJobID parses the journal's job identifiers: a
// monotonic sequence number, resumed past the journal's maximum on restart
// so IDs never collide across crashes.
func jobID(seq uint64) string { return fmt.Sprintf("j%016x", seq) }

func parseJobID(id string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(id, "j%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}
