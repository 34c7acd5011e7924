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
//
// The in-memory index is the only home of a finished job in a Runner over
// the store (see Runner), so it is kept compact: one storedRecord per job,
// under 0.3 kB with its ID and options, and no result payloads.
type Store struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	size    int64 // end offset of the last intact record
	byID    map[string]int
	entries []storedRecord    // in first-seen order; byID indexes it
	names   map[string]string // see intern
	listers uint32            // tokens handed out by newLister
	skipped int
}

// storedRecord is the in-memory index entry for one job: what dedup,
// listing and Meta need, plus the byte range of the record's line in the
// file so Get can re-read the result payload on demand. The options are
// held as their canonical JSON — the bytes Job.ID hashes — which decode
// back to the same Options. Keeping payloads and decoded structs out of
// memory bounds a long-running daemon's footprint by job count, not by
// result size.
type storedRecord struct {
	id, experiment string
	options        string
	status         Status
	worker, err    string
	elapsed        time.Duration
	off            int64
	n              int
	// lister is the token of the Runner that lists the job (Runner.List),
	// 0 for none. It is bookkeeping of this process, never written.
	lister    uint32
	hasResult bool
}

// newStoredRecord is the index entry of rec, whose line occupies [off,
// off+n) in the file and was written for the runner with token lister;
// remember fills in the options.
func newStoredRecord(rec Record, off int64, n int, lister uint32) storedRecord {
	return storedRecord{
		id: rec.ID, experiment: rec.Experiment, status: rec.Status,
		worker: rec.Worker, err: rec.Error, elapsed: rec.Elapsed,
		off: off, n: n, lister: lister, hasResult: len(rec.Result) > 0,
	}
}

// optionsJSON returns the options object of a line json.Marshal wrote for
// a Record: the bytes json.Marshal writes for its Options alone. The key
// cannot occur earlier, inside the ID or experiment string, where every
// quote is escaped.
func optionsJSON(line []byte) []byte {
	const key = `,"options":`
	start := bytes.Index(line, []byte(key)) + len(key)
	depth, quoted := 0, false
	for i := start; i < len(line); i++ {
		switch c := line[i]; {
		case quoted && c == '\\':
			i++ // the escaped byte
		case c == '"':
			quoted = !quoted
		case quoted:
		case c == '{':
			depth++
		case c == '}':
			if depth--; depth == 0 {
				return line[start : i+1]
			}
		}
	}
	panic(fmt.Sprintf("runner: no options object in %s", line))
}

// record rebuilds the Record the entry's line holds, result stripped.
func (e *storedRecord) record() Record {
	rec := Record{ID: e.id, Experiment: e.experiment, Status: e.status,
		Elapsed: e.elapsed, Error: e.err, Worker: e.worker}
	if err := json.Unmarshal([]byte(e.options), &rec.Options); err != nil {
		// They are json.Marshal's encoding of an Options value.
		panic(fmt.Sprintf("runner: decode indexed options of %s: %v", e.id, err))
	}
	return rec
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
	s := &Store{f: f, path: path, byID: make(map[string]int), names: make(map[string]string)}
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
		// The line's own options bytes need not be canonical (spacing,
		// key order): index the encoding of what they decode to.
		opts, err := json.Marshal(rec.Options)
		if err != nil {
			return fmt.Errorf("runner: store %s: options of %s: %w", s.path, rec.ID, err)
		}
		s.remember(newStoredRecord(rec, int64(start-nl-1), len(line), 0), opts)
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

// remember merges one entry, whose record has the options JSON opts, into
// the in-memory index. Completed records are immutable; anything else is
// superseded by a later record. A job's lister survives a superseding
// record that names none.
func (s *Store) remember(e storedRecord, opts []byte) {
	e.experiment = s.intern(e.experiment)
	e.status = Status(s.intern(string(e.status)))
	e.worker = s.intern(e.worker)
	i, ok := s.byID[e.id]
	if ok && s.entries[i].options == string(opts) {
		e.options = s.entries[i].options // a job's records repeat its options
	} else {
		e.options = string(opts)
	}
	if !ok {
		s.byID[e.id] = len(s.entries)
		s.entries = append(s.entries, e)
		return
	}
	s.skipped++
	prev := &s.entries[i]
	e.id = prev.id // the copy byID holds as its key
	if e.lister == 0 {
		e.lister = prev.lister
	}
	if prev.status == StatusDone {
		prev.lister = e.lister
		return
	}
	*prev = e
}

// intern returns the store's copy of v. Experiment names, statuses and
// worker names repeat across thousands of records, which a reopened store
// would otherwise hold once each. Callers hold s.mu.
func (s *Store) intern(v string) string {
	if v == "" {
		return ""
	}
	if w, ok := s.names[v]; ok {
		return w
	}
	s.names[v] = v
	return v
}

// payload re-reads one record's line from disk and returns its result
// bytes. Callers hold s.mu.
func (s *Store) payload(e *storedRecord) (json.RawMessage, error) {
	buf := make([]byte, e.n)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("runner: reread record %s: %w", e.id, err)
	}
	var full struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(buf, &full); err != nil {
		return nil, fmt.Errorf("runner: reread record %s: %w", e.id, err)
	}
	return full.Result, nil
}

// Append persists one record and merges it into the in-memory view. The
// line is synced to disk before Append returns.
func (s *Store) Append(rec Record) error { return s.append(rec, 0) }

// append is Append for the runner with token lister, which the index
// entry then names.
func (s *Store) append(rec Record, lister uint32) error {
	if s == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: marshal record %s: %w", rec.ID, err)
	}
	e := newStoredRecord(rec, 0, len(line), lister)
	opts := optionsJSON(line)
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
	e.off = s.size
	s.size += int64(len(line))
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("runner: sync store: %w", err)
	}
	s.remember(e, opts)
	return nil
}

// entry returns a copy of a job's index entry.
func (s *Store) entry(id string) (storedRecord, bool) {
	if s == nil {
		return storedRecord{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.byID[id]
	if !ok {
		return storedRecord{}, false
	}
	return s.entries[i], true
}

// newLister returns a token no other Runner over this store holds, for
// it to mark the jobs it lists (storedRecord.lister).
func (s *Store) newLister() uint32 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.listers++
	return s.listers
}

// list names the runner with token lister as the one listing an indexed
// job.
func (s *Store) list(id string, lister uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.byID[id]; ok {
		s.entries[i].lister = lister
	}
}

// Meta returns a job's record with the result payload stripped, without
// touching disk. Status checks (dedup, resume) go through here.
func (s *Store) Meta(id string) (Record, bool) {
	e, ok := s.entry(id)
	if !ok {
		return Record{}, false
	}
	return e.record(), true
}

// Get returns the full stored record for a job ID, re-reading the result
// payload from the file (payloads are not kept in memory).
func (s *Store) Get(id string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	i, ok := s.byID[id]
	if !ok {
		s.mu.Unlock()
		return Record{}, false
	}
	e := s.entries[i]
	var result json.RawMessage
	var err error
	if e.hasResult {
		result, err = s.payload(&e)
	}
	s.mu.Unlock()
	rec := e.record()
	if err != nil {
		// The index says the payload exists but the file no longer
		// yields it (hardware fault, external truncation). Surface a
		// failed view rather than a silently payload-less success.
		rec.Status = StatusFailed
		rec.Error = err.Error()
		return rec, true
	}
	rec.Result = result
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
	out := make([]Record, 0, len(s.entries))
	for i := range s.entries {
		out = append(out, s.entries[i].record())
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
	return len(s.entries)
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
