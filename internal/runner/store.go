package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"aergia/internal/experiments"
)

// Record is one job with its normalized options, lifecycle status,
// wall-clock cost, and — for completed jobs — the experiment's canonical
// result record. It is both the store's JSONL line format and (aliased as
// JobState) the runner's snapshot/API shape, so the two views cannot
// drift. The Result bytes are exactly what `aergia -experiment <id>
// -json` emits for the same options, so persisted results can be diffed
// against direct runs.
type Record struct {
	ID         string              `json:"id"`
	Experiment string              `json:"experiment"`
	Options    experiments.Options `json:"options"`
	Status     Status              `json:"status"`
	Elapsed    time.Duration       `json:"elapsed_ns,omitempty"`
	Error      string              `json:"error,omitempty"`
	// Worker names the federation worker that held (leased records) or
	// produced (terminal records) this outcome; empty for local execution.
	Worker string          `json:"worker,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Store is a crash-safe append-only JSONL file of Records.
//
// Each Append writes one line and syncs it. On Open, a torn tail (the
// artifact of a crash mid-write: a partial line, or unreadable lines with no
// record behind them) is detected, dropped, and truncated away so the file
// is valid JSONL again, while an unreadable line with a record behind it is
// damage Open refuses to guess about; duplicate IDs are deduplicated —
// a completed record is immutable, while a failed record is superseded by
// any later record for the same job. The file is held under an exclusive
// advisory lock, so a second process opening the same store (a stray
// daemon, a concurrent `aergia -sweep`) fails fast instead of interleaving
// writes. A nil *Store is valid and remembers nothing, for callers that
// want the queue without persistence.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64 // end offset of the last intact record
	byID    map[string]storedRecord
	order   []string
	skipped int
}

// storedRecord is the in-memory index entry for one job: the record with
// its result payload stripped, plus the byte range of the record's line
// in the file so the payload can be re-read on demand. Keeping payloads
// out of memory bounds a long-running daemon's footprint by job count,
// not by result size.
type storedRecord struct {
	meta      Record
	off       int64
	n         int
	hasResult bool
}

// Open loads (creating if needed) the store at path, recovering from a
// truncated tail line and deduplicating records as described on Store.
func Open(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open store: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: store %s is in use by another process: %w", path, err)
	}
	s := &Store{f: f, path: path, byID: make(map[string]storedRecord)}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load replays the file into memory, truncating a partial tail line.
func (s *Store) load() error {
	data, err := io.ReadAll(s.f)
	if err != nil {
		return fmt.Errorf("runner: read store: %w", err)
	}
	valid := int64(0) // end offset of the last well-formed line
	for start := 0; start < len(data); {
		nl := bytes.IndexByte(data[start:], '\n')
		if nl < 0 {
			// Partial tail line without a newline: a crash interrupted the
			// last append. Drop it.
			s.skipped++
			break
		}
		line := data[start : start+nl]
		start += nl + 1
		rec, err := parseRecord(line)
		if err != nil {
			if holdsRecord(data[start:]) {
				return fmt.Errorf("runner: store %s corrupt at byte %d: %v", s.path, start-nl-1, err)
			}
			// No record follows the unreadable line, so it and whatever
			// trails it are what a crash left of the last appends (a torn
			// write need not be one clean prefix: the blocks behind it can
			// come back as zeros or noise, newlines included). Drop them.
			s.skipped++
			break
		}
		s.remember(rec, int64(start-nl-1), len(line))
		valid = int64(start)
	}
	if valid < int64(len(data)) {
		if err := s.f.Truncate(valid); err != nil {
			return fmt.Errorf("runner: truncate partial tail: %w", err)
		}
	}
	s.size = valid
	return nil
}

// parseRecord decodes one store line.
func parseRecord(line []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return Record{}, err
	}
	if rec.ID == "" {
		return Record{}, fmt.Errorf("record missing id")
	}
	return rec, nil
}

// holdsRecord reports whether any complete line of data is a record.
func holdsRecord(data []byte) bool {
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return false
		}
		if _, err := parseRecord(data[:nl]); err == nil {
			return true
		}
		data = data[nl+1:]
	}
}

// remember merges one record (whose line occupies [off, off+n) in the
// file) into the in-memory index. Completed records are immutable;
// anything else is superseded by a later record.
func (s *Store) remember(rec Record, off int64, n int) {
	e := storedRecord{meta: rec, off: off, n: n, hasResult: len(rec.Result) > 0}
	e.meta.Result = nil
	prev, ok := s.byID[rec.ID]
	if !ok {
		s.byID[rec.ID] = e
		s.order = append(s.order, rec.ID)
		return
	}
	s.skipped++
	if prev.meta.Status == StatusDone {
		return
	}
	s.byID[rec.ID] = e
}

// payload re-reads one record's line from disk and returns its result
// bytes. Callers hold s.mu.
func (s *Store) payload(e storedRecord) (json.RawMessage, error) {
	buf := make([]byte, e.n)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("runner: reread record %s: %w", e.meta.ID, err)
	}
	var full Record
	if err := json.Unmarshal(buf, &full); err != nil {
		return nil, fmt.Errorf("runner: reread record %s: %w", e.meta.ID, err)
	}
	return full.Result, nil
}

// Append persists one record and merges it into the in-memory view. The
// line is synced to disk before Append returns.
func (s *Store) Append(rec Record) error {
	if s == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: marshal record %s: %w", rec.ID, err)
	}
	jsonLen := len(line)
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.Write(line); err != nil {
		// A short write would leave an unterminated prefix that, once
		// another record follows it, becomes mid-file corruption; roll the
		// file back to the last intact record instead.
		if terr := s.f.Truncate(s.size); terr != nil {
			return fmt.Errorf("runner: append record %s: %v (rollback failed: %v)", rec.ID, err, terr)
		}
		return fmt.Errorf("runner: append record %s: %w", rec.ID, err)
	}
	off := s.size
	s.size += int64(len(line))
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("runner: sync store: %w", err)
	}
	s.remember(rec, off, jsonLen)
	return nil
}

// Meta returns a job's record with the result payload stripped, without
// touching disk. Status checks (dedup, resume) go through here.
func (s *Store) Meta(id string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	return e.meta, ok
}

// Get returns the full stored record for a job ID, re-reading the result
// payload from the file (payloads are not kept in memory).
func (s *Store) Get(id string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if !ok {
		return Record{}, false
	}
	rec := e.meta
	if e.hasResult {
		result, err := s.payload(e)
		if err != nil {
			// The index says the payload exists but the file no longer
			// yields it (hardware fault, external truncation). Surface a
			// failed view rather than a silently payload-less success.
			rec.Status = StatusFailed
			rec.Error = err.Error()
			return rec, true
		}
		rec.Result = result
	}
	return rec, true
}

// List returns all records in first-seen order, payloads stripped; use
// Get to fetch one record with its result.
func (s *Store) List() []Record {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.byID[id].meta)
	}
	return out
}

// Len returns the number of distinct job records.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// Skipped reports how many lines were dropped or superseded during load
// and appends: truncated tails plus duplicate IDs.
func (s *Store) Skipped() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Path returns the backing file path.
func (s *Store) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Close releases the backing file.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
