package runner

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"aergia/internal/experiments"
)

// FuzzStoreTornTail cuts a valid store at any byte and glues arbitrary bytes
// behind the cut — what a crash, a full disk or a power loss can leave of
// the last appends. Open must come back with every finished job whose
// record was whole before the tear and no job whose only whole lines are
// leased, leave the file appendable, and refuse only what it
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
		// What the whole lines say: a leased line (or a queued or running
		// one) is ignored, and a later line supersedes all but a done one.
		final := map[string]Record{}
		for _, r := range whole {
			switch r.Status {
			case StatusLeased, StatusQueued, StatusRunning:
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
		// A job whose whole lines are all leased never finished.
		for _, r := range whole {
			if _, ok := final[r.ID]; ok {
				continue
			}
			if got, ok := s.Get(r.ID); ok {
				t.Fatalf("job %s, whose only whole lines are leased, reads %+v", r.ID, got)
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
