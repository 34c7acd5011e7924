package runner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	// Worker names the federation worker that produced this outcome;
	// empty for local execution.
	Worker string          `json:"worker,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Store is a crash-safe append-only JSONL file of Records.
//
// Each Append encodes one line, writes it and syncs it, all under the
// store's lock. The line is encoded through a pointer into a scratch
// Record and buffer the store owns, so its bytes are json.Marshal's and it
// allocates nothing once the index has room (DESIGN.md §5). On Open, a
// torn tail (the artifact of a crash mid-write: a partial line, or
// unreadable lines with no record behind them) is detected, dropped, and
// truncated away so the file is valid JSONL again, while an unreadable
// line with a record behind it is damage Open refuses to guess about. A
// record whose status is not terminal (the leased lines older files hold,
// or a status this package does not know) is skipped, so its job reads as
// never finished. Duplicate IDs are deduplicated — a completed record is
// immutable, while a failed record is superseded by any later record for
// the same job. The file is held under an exclusive advisory lock, so a
// second process opening the same store (a stray daemon, a concurrent
// `aergia -sweep`) fails fast instead of interleaving writes. A nil *Store
// is valid and remembers nothing, for callers that want the queue without
// persistence.
//
// The in-memory index is the only home of a finished job in a Runner over
// the store (see Runner), so it is kept compact: a 56 B storedRecord that
// holds the ID as its digest, a 4 B slot of byID at most three quarters
// full, and no result payloads. What a sweep's cells share — the
// experiment and every option but the seed — is one profile, held once.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64 // end offset of the last intact record
	// byID is an open-addressed table of entry index + 1 by idKey.hash,
	// 0 for an empty slot; its length is a power of two.
	byID      []uint32
	entries   []storedRecord // in first-seen order; byID indexes it
	profiles  []profile      // storedRecord.profile indexes it
	profileOf map[profile]uint32
	labels    []label // storedRecord.label indexes it
	labelOf   map[label]uint32
	errs      map[int]string // error text by entry index, for the few that have one
	ids       map[int]string // the ID by entry index, for the few with oddID
	listers   uint32         // tokens handed out by newLister
	skipped   int
	// append's scratch, reused from line to line. It encodes &rec, so json's
	// omitzero checks find the options addressable and box no copy.
	rec Record
	buf bytes.Buffer
	enc *json.Encoder
}

// label is a record's status and worker. The pairs repeat across
// thousands of records, which a reopened store would otherwise hold once
// each.
type label struct {
	status Status
	worker string
}

// profile is what the records of a sweep's cells share: the experiment
// and the options with Seed zeroed and nothing the encoding omits. Options
// holds only flat scalars, so a profile is its own map key.
type profile struct {
	experiment string
	options    experiments.Options
}

// storedRecord is the in-memory index entry for one job: what dedup,
// listing and Meta need, plus the byte range of the record's line in the
// file so Get can re-read the result payload on demand. The ID is its
// digest, whose experiment is the profile's; everything else but the seed
// and the numbers is an index into the store's tables (profiles, labels,
// errs, ids), so the entry is 56 B with no allocation of its own. Keeping
// payloads and decoded structs out of memory bounds a long-running
// daemon's footprint by job count, not by result size.
type storedRecord struct {
	seed    uint64
	elapsed time.Duration
	off     int64
	n       uint32
	profile uint32
	label   uint32
	// lister is the token of the Runner that lists the job (Runner.List),
	// 0 for none. It is bookkeeping of this process, never written.
	lister    uint32
	digest    [12]byte // idKey.digest, unless oddID
	hasResult bool
	oddID     bool // the ID is in ids: odd, or not of the profile's experiment
}

// key returns the idKey of entry i's ID. Callers hold s.mu.
func (s *Store) key(i int) idKey {
	e := &s.entries[i]
	if e.oddID {
		return keyOf(s.ids[i])
	}
	return idKey{digest: e.digest, experiment: s.profiles[e.profile].experiment}
}

// record rebuilds the Record entry i's line holds, result stripped.
// Callers hold s.mu.
func (s *Store) record(i int) Record {
	e := &s.entries[i]
	p, l := &s.profiles[e.profile], &s.labels[e.label]
	rec := Record{ID: s.key(i).String(), Experiment: p.experiment, Options: p.options,
		Status: l.status, Elapsed: e.elapsed, Error: s.errs[i], Worker: l.worker}
	rec.Options.Seed = e.seed
	return rec
}

// slot returns the position in byID of the job whose ID has key k: the
// slot of its entry, or the empty slot where it would go. Callers hold
// s.mu.
func (s *Store) slot(k idKey) int {
	mask := len(s.byID) - 1
	for j := int(k.hash()) & mask; ; j = (j + 1) & mask {
		if v := s.byID[j]; v == 0 || s.key(int(v-1)) == k {
			return j
		}
	}
}

// lookup returns the index of the entry of the job whose ID has key k.
// Callers hold s.mu.
func (s *Store) lookup(k idKey) (int, bool) {
	v := s.byID[s.slot(k)]
	return int(v) - 1, v != 0
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
	s := &Store{f: f, path: path, byID: make([]uint32, 8),
		profileOf: make(map[profile]uint32), labelOf: make(map[label]uint32),
		errs: make(map[int]string), ids: make(map[int]string)}
	s.enc = json.NewEncoder(&s.buf)
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
		if nl > math.MaxUint32 {
			return fmt.Errorf("runner: store %s: the line at byte %d is over 4 GiB", s.path, start-nl-1)
		}
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
		s.remember(rec, int64(start-nl-1), len(line), 0)
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

// remember merges rec, whose line occupies [off, off+n) in the file and
// was written for the runner with token lister, into the in-memory index.
// A record whose status is not terminal is skipped. Completed records
// are immutable; anything else is superseded by a later record. A job's
// lister survives a superseding record that names none. Callers hold s.mu,
// or own s as load does.
func (s *Store) remember(rec Record, off int64, n int, lister uint32) {
	if !rec.Status.terminal() {
		s.skipped++
		return
	}
	k := keyOf(rec.ID)
	e := storedRecord{seed: rec.Options.Seed, elapsed: rec.Elapsed,
		off: off, n: uint32(n), profile: s.internProfile(rec.Experiment, rec.Options),
		label: s.internLabel(label{rec.Status, rec.Worker}), lister: lister,
		digest: k.digest, hasResult: len(rec.Result) > 0,
		oddID: k.odd || k.experiment != rec.Experiment}
	j := s.slot(k)
	i := int(s.byID[j]) - 1
	if i >= 0 {
		s.skipped++
		prev := &s.entries[i]
		if e.lister == 0 {
			e.lister = prev.lister
		}
		if s.labels[prev.label].status == StatusDone {
			prev.lister = e.lister
			return
		}
		*prev = e
	} else {
		i = len(s.entries)
		s.entries = append(s.entries, e)
		s.byID[j] = uint32(len(s.entries))
	}
	if rec.Error != "" {
		s.errs[i] = rec.Error
	} else {
		delete(s.errs, i)
	}
	if e.oddID {
		s.ids[i] = rec.ID // before the table grows, which reads it
	} else {
		delete(s.ids, i)
	}
	if 4*len(s.entries) > 3*len(s.byID) {
		s.byID = make([]uint32, 2*len(s.byID))
		for x := range s.entries {
			s.byID[s.slot(s.key(x))] = uint32(x + 1)
		}
	}
}

// internProfile returns the index of the profile of a record of
// experiment with options opts, adding it on first sight. Callers hold
// s.mu.
func (s *Store) internProfile(experiment string, opts experiments.Options) uint32 {
	opts.Seed = 0
	opts.Trace, opts.Spans, opts.Events = nil, nil, nil
	p := profile{experiment, opts}
	if i, ok := s.profileOf[p]; ok {
		return i
	}
	i := uint32(len(s.profiles))
	s.profiles = append(s.profiles, p)
	s.profileOf[p] = i
	return i
}

// internLabel returns the index of l in labels, adding it on first sight.
// Callers hold s.mu.
func (s *Store) internLabel(l label) uint32 {
	if i, ok := s.labelOf[l]; ok {
		return i
	}
	i := uint32(len(s.labels))
	s.labels = append(s.labels, l)
	s.labelOf[l] = i
	return i
}

// payload re-reads the line of entry i, the job id, from disk and returns
// its result bytes. Callers hold s.mu.
func (s *Store) payload(i int, id string) (json.RawMessage, error) {
	e := &s.entries[i]
	buf := make([]byte, e.n)
	if _, err := s.f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("runner: reread record %s: %w", id, err)
	}
	var full struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(buf, &full); err != nil {
		return nil, fmt.Errorf("runner: reread record %s: %w", id, err)
	}
	return full.Result, nil
}

// Append persists one record and merges it into the in-memory view. The
// line is synced to disk before Append returns. A record whose status is
// not terminal is written but, as Open would, not indexed.
func (s *Store) Append(rec Record) error { return s.append(rec, 0) }

// append is Append for the runner with token lister, which the index
// entry then names.
func (s *Store) append(rec Record, lister uint32) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
	err := s.enc.Encode(&s.rec)
	s.rec = Record{}
	defer func() {
		// Reuse the buffer, unless a large result grew it.
		if s.buf.Reset(); s.buf.Cap() > 64<<10 {
			s.buf = bytes.Buffer{}
		}
	}()
	if err != nil {
		return fmt.Errorf("runner: marshal record %s: %w", rec.ID, err)
	}
	line := s.buf.Bytes() // Encode's newline ends it
	n := len(line) - 1
	if n > math.MaxUint32 {
		return fmt.Errorf("runner: record %s is over 4 GiB", rec.ID)
	}
	if bytes.Contains(line, []byte(`\ufffd`)) {
		// json.Marshal writes \ufffd for each byte of a string that is not
		// valid UTF-8, the one value it does not write back as is: index
		// what the line says, as Open will. A string that holds the escape
		// itself lands here too, and decodes to itself.
		var exact Record
		if err := json.Unmarshal(line, &exact); err != nil {
			return fmt.Errorf("runner: decode record %s: %w", rec.ID, err)
		}
		rec = exact
	}
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
	s.remember(rec, off, n, lister)
	return nil
}

// find returns the record of the job whose ID has key k, result
// stripped, and the token of the runner that lists it, if the index holds
// the job and it passes f. A record f drops is not built.
func (s *Store) find(k idKey, f filter) (Record, uint32, bool) {
	if s == nil {
		return Record{}, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.lookup(k)
	if !ok {
		return Record{}, 0, false
	}
	e := &s.entries[i]
	if !f.match(s.labels[e.label].status, s.profiles[e.profile].experiment) {
		return Record{}, 0, false
	}
	return s.record(i), e.lister, true
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

// list names the runner with token lister as the one listing the indexed
// job whose ID has key k.
func (s *Store) list(k idKey, lister uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.lookup(k); ok {
		s.entries[i].lister = lister
	}
}

// Meta returns a job's record with the result payload stripped, without
// touching disk. Status checks (dedup, resume) go through here.
func (s *Store) Meta(id string) (Record, bool) {
	rec, _, ok := s.find(keyOf(id), filter{})
	return rec, ok
}

// Get returns the full stored record for a job ID, re-reading the result
// payload from the file (payloads are not kept in memory).
func (s *Store) Get(id string) (Record, bool) {
	if s == nil {
		return Record{}, false
	}
	s.mu.Lock()
	i, ok := s.lookup(keyOf(id))
	if !ok {
		s.mu.Unlock()
		return Record{}, false
	}
	rec := s.record(i)
	var err error
	if s.entries[i].hasResult {
		rec.Result, err = s.payload(i, rec.ID)
	}
	s.mu.Unlock()
	if err != nil {
		// The index says the payload exists but the file no longer
		// yields it (hardware fault, external truncation). Surface a
		// failed view rather than a silently payload-less success.
		rec.Status = StatusFailed
		rec.Error = err.Error()
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
	out := make([]Record, 0, len(s.entries))
	for i := range s.entries {
		out = append(out, s.record(i))
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

// Skipped reports how many lines were dropped, skipped or superseded
// during load and appends: truncated tails, records whose status is not
// terminal, and duplicate IDs.
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
