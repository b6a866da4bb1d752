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

// The durable-state layer: the only code in serve that writes durable files.
// Two mechanisms cover every caller.
//
//   - installFile is the one temp → write → fsync → rename path, and it
//     fsyncs the parent directory after the rename so the install itself
//     survives a power loss. The disk cache installs its entries through it,
//     and the record log installs its open-time rewrite and its folds.
//   - recordLog is the one append-only NDJSON log, under both the job
//     journal and the adapt decision journal. Appends are group-committed
//     and acknowledged only once fsynced; open quarantines a torn tail and
//     folds the log; a threshold fold compacts it in place at runtime.
//
// A log's user supplies only its schema: parse reads raw bytes into the
// state of their valid prefix, and fold renders a state as the log's
// compact image.

// installFile atomically replaces path (inside dir) with data: a kill at any
// instant leaves the old bytes or the new bytes, never a mix. The temp file
// is named by createTemp, so a crash before the rename leaves a leftover the
// next open sweeps once its writer is dead.
//
// The installed file comes back open and positioned at its end, so a log
// fold keeps appending to the inode it just installed. The file is non-nil
// exactly when the rename happened: if only the directory fsync failed, the
// new bytes are at path but the install may not survive a power loss, and
// both the file and the error are returned.
func installFile(dir, path string, data []byte) (*os.File, error) {
	f, err := createTemp(dir, filepath.Base(path))
	if err != nil {
		return nil, err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return f, syncDir(dir)
}

type logAppend struct {
	line []byte
	done chan error
}

// recordLog is an append-only NDJSON file of records whose state is S. A
// single writer goroutine drains a channel of pending records, writes them
// in one syscall, fsyncs once, and then acknowledges the whole batch —
// group commit, so thousands of concurrent appends do not serialize on
// per-record fsyncs.
type recordLog[S any] struct {
	path  string
	dir   string
	parse func(raw []byte) (S, int)
	fold  func(S) ([]byte, error)
	// compacted records whether open rewrote the file — surfaced as a
	// metric by the server.
	compacted bool
	// compactEvery folds the log in place after that many runtime appends
	// (0 = only at open); appended counts records since the last fold. Both
	// are touched only on the writer goroutine.
	compactEvery int
	appended     int
	// onCompact, when set, observes each runtime threshold fold. Set before
	// the first Append; never mutated after.
	onCompact func()
	// onFsync, when set, observes each group-commit fsync's latency. Set
	// before the first Append; never mutated after.
	onFsync func(time.Duration)

	mu     sync.Mutex
	f      *os.File
	dead   bool // crashed or closed: appends fail, nothing more is written
	wg     sync.WaitGroup
	writes chan logAppend
}

// openRecordLog opens (creating if needed) the log name under dir,
// recovering its state first. parse returns the state of the raw bytes'
// valid prefix and that prefix's length; whatever follows is a torn tail —
// the partial record a kill mid-append leaves — and is quarantined to
// quarantined/<name>.torn, never re-parsed. The log is rewritten to the
// folded image iff a tail was torn or the image differs from the valid
// prefix, so an already-folded log is left as it is. compactEvery also
// folds the log in place after that many runtime appends (0 disables
// runtime folding).
func openRecordLog[S any](dir, name string, compactEvery int,
	parse func(raw []byte) (S, int), fold func(S) ([]byte, error)) (*recordLog[S], S, error) {
	var zero S
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, zero, fmt.Errorf("serve: read %s: %w", name, err)
	}
	st, valid := parse(raw)
	img, err := fold(st)
	if err != nil {
		return nil, zero, fmt.Errorf("serve: fold %s: %w", name, err)
	}
	if torn := raw[valid:]; len(torn) > 0 {
		if err := os.WriteFile(filepath.Join(dir, quarantineDir, name+".torn"), torn, 0o644); err != nil {
			return nil, zero, fmt.Errorf("serve: quarantine %s tail: %w", name, err)
		}
	}
	l := &recordLog[S]{path: path, dir: dir, parse: parse, fold: fold,
		compactEvery: compactEvery, writes: make(chan logAppend, 1024)}
	l.compacted = valid < len(raw) || !bytes.Equal(img, raw[:valid])
	if l.compacted {
		l.f, err = installFile(dir, path, img)
	} else {
		l.f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		if l.f != nil {
			l.f.Close()
		}
		return nil, zero, fmt.Errorf("serve: open %s: %w", name, err)
	}
	l.wg.Add(1)
	go l.run()
	return l, st, nil
}

// Append logs one record durably as an NDJSON line: it returns once the
// record (and any batchmates) has been fsynced, or an error if the write
// failed or the log is closed. A nil log drops every record.
func (l *recordLog[S]) Append(rec any) error {
	if l == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: journal marshal: %w", err)
	}
	a := logAppend{line: append(line, '\n'), done: make(chan error, 1)}
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return fmt.Errorf("serve: journal closed")
	}
	l.writes <- a
	l.mu.Unlock()
	return <-a.done
}

// run is the group-commit writer.
func (l *recordLog[S]) run() {
	defer l.wg.Done()
	for a := range l.writes {
		batch := []logAppend{a}
	drain:
		for len(batch) < 512 {
			select {
			case b, ok := <-l.writes:
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
		_, err := l.f.Write(buf.Bytes())
		if err == nil {
			t0 := time.Now()
			err = l.f.Sync()
			if l.onFsync != nil {
				l.onFsync(time.Since(t0))
			}
		}
		for _, b := range batch {
			b.done <- err
		}
		l.appended += len(batch)
		if err == nil {
			l.maybeFold()
		}
	}
}

// maybeFold folds the log in place once compactEvery records have been
// appended since the last fold. It runs on the writer goroutine between
// batches, so no append is in flight: it re-reads the file and installs the
// folded image, unless the file has a torn tail or the image is not
// smaller. The installed file's fd replaces the old one under mu, so
// appends continue on the inode now at path. Any error skips the fold —
// folding is an optimization, never a reason to fail an acknowledged append.
func (l *recordLog[S]) maybeFold() {
	if l.compactEvery <= 0 || l.appended < l.compactEvery {
		return
	}
	l.appended = 0
	raw, err := os.ReadFile(l.path)
	if err != nil {
		return
	}
	st, valid := l.parse(raw)
	img, err := l.fold(st)
	if err != nil || valid < len(raw) || len(img) >= len(raw) {
		return // unreadable, foreign bytes, or nothing to fold away
	}
	// A failed directory fsync still swaps: the new inode is at path, and
	// appends to the old one would be lost on the next open.
	f, _ := installFile(l.dir, l.path, img)
	if f == nil {
		return
	}
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		f.Close()
		return
	}
	old := l.f
	l.f = f
	l.mu.Unlock()
	old.Close()
	if l.onCompact != nil {
		l.onCompact()
	}
}

// Close flushes pending appends and closes the file. Further appends fail.
func (l *recordLog[S]) Close() {
	l.stop(false)
}

// crash abandons the log without flushing — the test seam that models
// kill -9: pending and future appends error out and nothing more reaches
// disk through this handle.
func (l *recordLog[S]) crash() {
	l.stop(true)
}

func (l *recordLog[S]) stop(crash bool) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	l.dead = true
	close(l.writes)
	if crash {
		l.f.Close() // in-flight batch writes fail on the closed fd
	}
	l.mu.Unlock()
	l.wg.Wait()
	if !crash {
		l.f.Close()
	}
}

// validPrefix feeds raw's newline-terminated lines to accept in order and
// returns the length of the prefix it took: the first line accept rejects,
// or a last line without its newline, starts the torn tail.
func validPrefix(raw []byte, accept func(line []byte) bool) int {
	off := 0
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 || !accept(raw[off:off+nl]) {
			break
		}
		off += nl + 1
	}
	return off
}
