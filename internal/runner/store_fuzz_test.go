package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/experiments"
	"aergia/internal/hier"
)

// FuzzStoreTornTail cuts a valid store at any byte and glues arbitrary bytes
// behind the cut — what a crash, a full disk or a power loss can leave of
// the last appends. Open must come back with every finished job whose
// record was whole before the tear and no job none of whose whole lines
// is terminal, leave the file appendable, and refuse only what it
// cannot tell from damage in the middle of the file: an unreadable line
// with a readable record behind it. Whatever it indexes must read back as
// the line it came from (indexMatchesFile), and so must the same records
// appended to a fresh store, and the record appended after recovery, whose
// backend and worker are the glued bytes.
func FuzzStoreTornTail(f *testing.F) {
	var image []byte
	var ends []int // end offset of each whole line in image
	add := func(rec Record) {
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		image = append(append(image, line...), '\n')
		ends = append(ends, len(image))
	}
	rec := func(seed uint64, status Status, result string) Record {
		job, err := NewJob("fig4", experiments.Options{Quick: true, Seed: seed})
		if err != nil {
			f.Fatal(err)
		}
		r := Record{ID: job.ID(), Experiment: job.Experiment, Options: job.Options, Status: status}
		if result != "" {
			r.Result = json.RawMessage(result)
		}
		return r
	}
	add(rec(1, StatusDone, `{"experiment":"fig4","data":[1,2,3]}`))
	add(rec(2, StatusFailed, ""))
	add(rec(3, StatusLeased, ""))
	add(rec(2, StatusDone, `{"experiment":"fig4","note":"line\nbreak   in a string"}`))
	add(rec(3, StatusDone, `{"experiment":"fig4"}`))
	add(rec(4, StatusCanceled, ""))

	whole := string(image[ends[0]:ends[1]])
	// IDs that look like Job.ID's but are kept as strings, and two that
	// share the image's digests under another experiment.
	as := func(seed uint64, id func(hexits string) string, experiment string) string {
		r := rec(seed, StatusDone, `{"experiment":"`+experiment+`"}`)
		r.ID, r.Experiment = id(r.ID[len("fig4-"):]), experiment
		line, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		return string(line) + "\n"
	}
	lookalikes := []string{
		as(1, func(h string) string { return "fig4-" + strings.ToUpper(h) }, "fig4"),
		as(1, func(h string) string { return "fig4-" + h[:23] }, "fig4"),
		as(1, func(h string) string { return "fig4-" + h + "0" }, "fig4"),
		as(5, func(h string) string { return "table1-" + h }, "fig4"),
		as(2, func(h string) string { return "table1-" + h }, "table1") +
			as(2, func(h string) string { return "fig4-" + h }, "table1"),
		as(4, func(h string) string { return "fig4-" + h }, "table1"),
	}
	for _, cut := range append([]int{0, 1, ends[0] - 1, ends[0] + 40, len(image) - 2}, ends...) {
		for _, tail := range []string{
			"",
			`{"id":"fig4-deadbeef","exper`,
			"not json at all\n",
			"garbage\nmore garbage\n",
			"\n\n\n",
			"\x00\x00\x00\x00\n\x00\x00",
			`{"id":""}` + "\n",
			whole,
			"garbage\n" + whole, // damage with a record behind it: refused
			// Keys and braces inside strings, spacing and key order no
			// encoder writes, a duplicate key, and fields of no record.
			`{"id":"x\",\"options\":{","experiment":"}{\\","options":{"backend":"a}\"{","seed":3},"status":"done","worker":"w","result":{"a":"}"}}` + "\n",
			`{ "status" : "failed", "options" : { "chaos" : {"churn":0.30000000000000004,"drop":-0}, "hier": {"tiers":2} }, "id" : "odd", "error":"e\u00e9\ud83d\ude00", "elapsed_ns": 12 }` + "\n",
			`{"id":"dup","status":"leased","worker":"1:w1","options":{"seed":1},"options":{"seed":2},"Trace":1,"extra":[1]}` + "\n",
			// Strings that are not valid UTF-8, which a decode and
			// json.Marshal both turn into U+FFFD, and the escape itself.
			"\xff",
			"{\"id\":\"bad\",\"options\":{\"backend\":\"\xff\xc3\"},\"status\":\"done\",\"worker\":\"w\xff\"}\n",
			`\ufffd`,
			strings.Join(lookalikes, ""),
		} {
			f.Add(uint16(cut), []byte(tail))
		}
		for _, tail := range lookalikes {
			f.Add(uint16(cut), []byte(tail))
		}
	}

	f.Fuzz(func(t *testing.T, cut uint16, tail []byte) {
		k := int(cut) % (len(image) + 1)
		kept := 0 // whole lines of the image before the tear
		for kept < len(ends) && ends[kept] <= k {
			kept++
		}
		file := append(append([]byte{}, image[:k]...), tail...)
		path := tempStore(t)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}

		// The oracle: behind the last whole line, find the first line that
		// is not a record; a record anywhere after it is mid-file damage.
		// The records before it are what Open loads, with the image's.
		var whole []Record
		for i := 0; i < kept; i++ {
			start := 0
			if i > 0 {
				start = ends[i-1]
			}
			r, _ := parseRecord(image[start : ends[i]-1])
			whole = append(whole, r)
		}
		rest := file
		if kept > 0 {
			rest = file[ends[kept-1]:]
		}
		damaged, refuse := false, false
		for {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				break
			}
			r, err := parseRecord(rest[:nl])
			refuse = refuse || damaged && err == nil
			damaged = damaged || err != nil
			if !damaged {
				whole = append(whole, r)
			}
			rest = rest[nl+1:]
		}

		s, err := Open(path)
		if refuse {
			if err == nil {
				s.Close()
				t.Fatal("opened a store with a record behind an unreadable line")
			}
			return
		}
		if err != nil {
			t.Fatalf("torn tail not recovered: %v", err)
		}
		// What the whole lines say: a line whose status is not terminal (a
		// leased one, or one of no status the package knows) is ignored,
		// and a later line supersedes all but a done one.
		final := map[string]Record{}
		for _, r := range whole {
			switch r.Status {
			case StatusDone, StatusFailed, StatusCanceled:
			default:
				continue
			}
			if prev, ok := final[r.ID]; !ok || prev.Status != StatusDone {
				final[r.ID] = r
			}
		}
		indexMatchesFile(t, s, path)
		copied, err := Open(filepath.Join(t.TempDir(), "copy.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		for _, meta := range s.List() {
			full, _ := s.Get(meta.ID)
			if err := copied.Append(full); err != nil {
				t.Fatal(err)
			}
		}
		indexMatchesFile(t, copied, copied.Path())
		copied.Close()
		for id, want := range final {
			got, ok := s.Get(id)
			if !ok {
				t.Fatalf("record %s, whole before the tear, is gone", id)
			}
			if want.Status == StatusDone && (got.Status != StatusDone || !bytes.Equal(got.Result, want.Result)) {
				t.Fatalf("done record %s came back as %s %s, want %s", id, got.Status, got.Result, want.Result)
			}
		}
		// A job none of whose whole lines is terminal never finished.
		for _, r := range whole {
			if _, ok := final[r.ID]; ok {
				continue
			}
			if got, ok := s.Get(r.ID); ok {
				t.Fatalf("job %s, none of whose whole lines is terminal, reads %+v", r.ID, got)
			}
		}
		// The file must be whole lines again: an append lands on its own
		// line and the next Open sees it.
		next := rec(99, StatusDone, `{"experiment":"fig4","after":"recovery"}`)
		next.Options.Backend, next.Worker = string(tail), string(tail)
		if err := s.Append(next); err != nil {
			t.Fatal(err)
		}
		indexMatchesFile(t, s, path)
		n := s.Len()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(path)
		if err != nil {
			t.Fatalf("reopen after recovery and append: %v", err)
		}
		defer s.Close()
		if got, ok := s.Get(next.ID); !ok || !bytes.Equal(got.Result, next.Result) || s.Len() != n {
			t.Fatalf("after reopen: %d records (want %d), appended record %+v", s.Len(), n, got)
		}
	})
}

// indexMatchesFile checks every job the store indexes against a full
// decode of the line its entry points at: the line's ID must lead back to
// the entry, Get must return that record and Meta the same without its
// result, whether the line was loaded or appended.
func indexMatchesFile(t *testing.T, s *Store, path string) {
	t.Helper()
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	entries := slices.Clone(s.entries)
	s.mu.Unlock()
	for i, e := range entries {
		var want Record
		if err := json.Unmarshal(file[e.off:e.off+int64(e.n)], &want); err != nil {
			t.Fatalf("line of entry %d: %v", i, err)
		}
		id := want.ID
		s.mu.Lock()
		j, ok := s.lookup(keyOf(id))
		s.mu.Unlock()
		if !ok || j != i {
			t.Fatalf("ID %q of entry %d looks up entry %d, %v", id, i, j, ok)
		}
		if got, ok := s.Get(id); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%q) = %+v, the line decodes to %+v", id, got, want)
		}
		want.Result = nil
		if got, ok := s.Meta(id); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Meta(%q) = %+v, the line decodes to %+v", id, got, want)
		}
	}
}

// FuzzRecordLine holds the store's encoder to json.Marshal. For arbitrary
// ID, experiment, error, worker and option strings — bytes that are not
// UTF-8, <>&, U+2028, the \ufffd escape spelled out — and results that
// are JSON or not, the line Store.Append writes is json.Marshal of the
// record and a newline, and the two fail on the same records. Open then
// indexes what Append indexed. The grant spec, the job marshalled through
// a pointer, is the job marshalled by value, and Job.ID is the digest of
// experiment|json.Marshal(options).
func FuzzRecordLine(f *testing.F) {
	for _, s := range []string{"", "fig4", "<>&", "a\u2028b\u2029", `\ufffd`, "\ufffd", "\xff\xc3(", `"}\`, "\u00e9\U0001f600"} {
		f.Add(s, s, s, s, s, uint64(7), 0.25, 2, uint8(0), []byte(`{"experiment":"fig4","data":[1, 2]}`))
		f.Add("fig4-"+s, "fig4", s, "1:w"+s, "serial", uint64(1), 0.0, 0, uint8(1), []byte(s))
	}
	f.Add("x", "table1", "", "", "", uint64(0), -0.0, 0, uint8(2), []byte(`{"a":"< >"}`))
	f.Add("x", "table1", "e", "w", "", uint64(0), 1e300, 0, uint8(3), []byte(`{"a":1`))
	f.Add("x", "table1", "e", "w", "", uint64(0), 0.5, 1, uint8(0), []byte("\"\xff\""))

	f.Fuzz(func(t *testing.T, id, experiment, errText, worker, backend string, seed uint64, churn float64,
		tiers int, status uint8, result []byte) {
		if id == "" {
			t.Skip("a record without an ID is no record")
		}
		opts := experiments.Options{Seed: seed, Backend: backend, Codec: worker,
			Chaos: chaos.Plan{Churn: churn}, Hier: hier.Options{Tiers: tiers}}
		job := Job{Experiment: experiment, Options: opts}
		byValue, verr := json.Marshal(job)
		spec, perr := json.Marshal(&job)
		if !bytes.Equal(spec, byValue) || (verr == nil) != (perr == nil) {
			t.Fatalf("the grant spec reads %s, %v; by value %s, %v", spec, perr, byValue, verr)
		}
		if optJSON, err := json.Marshal(opts); err == nil {
			sum := sha256.Sum256([]byte(experiment + "|" + string(optJSON)))
			if want := (idKey{digest: [12]byte(sum[:12]), experiment: experiment}).String(); job.ID() != want {
				t.Fatalf("Job.ID = %s, the digest of its options' JSON names %s", job.ID(), want)
			}
		}

		rec := Record{ID: id, Experiment: experiment, Options: opts,
			Status:  []Status{StatusDone, StatusFailed, StatusCanceled, "paused"}[status%4],
			Elapsed: time.Duration(seed), Error: errText, Worker: worker, Result: result}
		want, merr := json.Marshal(rec)
		path := tempStore(t)
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { s.Close() }()
		aerr := s.Append(rec)
		if (merr == nil) != (aerr == nil) {
			t.Fatalf("json.Marshal fails with %v, Append with %v", merr, aerr)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if merr != nil {
			want = nil
		} else {
			want = append(want, '\n')
		}
		if !bytes.Equal(file, want) {
			t.Fatalf("Append wrote\n%q\njson.Marshal writes\n%q", file, want)
		}
		indexed := func() []Record {
			var out []Record
			for _, meta := range s.List() {
				full, _ := s.Get(meta.ID)
				out = append(out, full)
			}
			return out
		}
		appended := indexed()
		if len(appended) != 0 && !rec.Status.terminal() || aerr == nil && rec.Status.terminal() && len(appended) != 1 {
			t.Fatalf("a %s record appended indexes %+v", rec.Status, appended)
		}
		indexMatchesFile(t, s, path)
		s.Close()
		if s, err = Open(path); err != nil {
			t.Fatal(err)
		}
		if opened := indexed(); !reflect.DeepEqual(opened, appended) {
			t.Fatalf("Open indexes %+v; Append indexed %+v", opened, appended)
		}
	})
}
