package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// The file is a recordLog (durable.go), which supplies the crash safety:
// group-committed appends, torn-tail quarantine, and fold compaction. This
// file holds only the record schema, its parse, and its fold.

const journalName = "jobs.journal"

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

// jobLog is the job journal's state: every known job in acceptance order
// plus the highest job sequence number parsed from the IDs.
type jobLog struct {
	jobs   []*recoveredJob
	maxSeq uint64
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
// prior state first, and returns every known job in acceptance order plus
// the highest job sequence number seen. compactEvery additionally folds the
// journal in place after that many runtime appends (0 disables runtime
// folding).
func openJournal(dir string, compactEvery int) (*recordLog[jobLog], []*recoveredJob, uint64, error) {
	l, st, err := openRecordLog(dir, journalName, compactEvery, parseJobs, foldJobs)
	if err != nil {
		return nil, nil, 0, err
	}
	return l, st.jobs, st.maxSeq, nil
}

// foldJobs renders the compacted journal image: per job, its accepted record
// and (if it reached one) a single terminal record — "running" markers,
// duplicate terminals, and torn bytes fold away.
func foldJobs(st jobLog) ([]byte, error) {
	var buf bytes.Buffer
	for _, rj := range st.jobs {
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
	return buf.Bytes(), nil
}

// parseJobs folds the journal's records into per-job state and returns it
// with the length of the valid prefix it parsed.
func parseJobs(raw []byte) (jobLog, int) {
	var st jobLog
	byID := map[string]*recoveredJob{}
	valid := validPrefix(raw, func(line []byte) bool {
		var rec journalRec
		if err := json.Unmarshal(line, &rec); err != nil || rec.ID == "" {
			return false // garbage from here on: torn tail
		}
		switch rec.Op {
		case "accepted":
			if rec.Req == nil {
				return false // a request-less accept is corrupt: torn tail
			}
			rj := &recoveredJob{id: rec.ID, rid: rec.RID, endpoint: rec.Endpoint,
				tenant: rec.Tenant, key: rec.Key, budget: rec.Budget, mapping: rec.Mapping, req: *rec.Req}
			if _, dup := byID[rec.ID]; !dup {
				byID[rec.ID] = rj
				st.jobs = append(st.jobs, rj)
			}
			if seq, ok := parseJobID(rec.ID); ok && seq > st.maxSeq {
				st.maxSeq = seq
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
		return true
	})
	return st, valid
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
