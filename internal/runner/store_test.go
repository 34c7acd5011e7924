package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aergia/internal/experiments"
)

func tempStore(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "results.jsonl")
}

func doneRecord(t *testing.T, experiment string, seed uint64) Record {
	t.Helper()
	job, err := NewJob(experiment, experiments.Options{Quick: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return Record{
		ID:         job.ID(),
		Experiment: job.Experiment,
		Options:    job.Options,
		Status:     StatusDone,
		Elapsed:    time.Millisecond,
		Result:     json.RawMessage(`{"experiment":"` + experiment + `"}`),
	}
}

func TestStoreAppendReload(t *testing.T) {
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		doneRecord(t, "fig4", 1),
		doneRecord(t, "fig4", 2),
		doneRecord(t, "table1", 1),
	}
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(recs) {
		t.Fatalf("reloaded %d records, want %d", s.Len(), len(recs))
	}
	for i, meta := range s.List() {
		if meta.ID != recs[i].ID || meta.Status != StatusDone {
			t.Fatalf("record %d = %+v, want id %s", i, meta, recs[i].ID)
		}
		if len(meta.Result) != 0 {
			t.Fatalf("record %d: List kept a payload in memory", i)
		}
		got, ok := s.Get(meta.ID)
		if !ok || string(got.Result) != string(recs[i].Result) {
			t.Fatalf("record %d result = %s, want %s", i, got.Result, recs[i].Result)
		}
	}
}

func TestStoreTruncatedTailRecovery(t *testing.T) {
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	good := doneRecord(t, "fig4", 1)
	if err := s.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a JSON line, no newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"fig4-deadbeef","exper`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, err = Open(path)
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	if s.Len() != 1 || s.Skipped() != 1 {
		t.Fatalf("len=%d skipped=%d, want 1 record and 1 skipped line", s.Len(), s.Skipped())
	}
	if _, ok := s.Get(good.ID); !ok {
		t.Fatalf("intact record %s lost", good.ID)
	}
	// The tail must be truncated away so new appends produce valid JSONL.
	next := doneRecord(t, "fig4", 2)
	if err := s.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path)
	if err != nil {
		t.Fatalf("reopen after recovery append: %v", err)
	}
	defer s.Close()
	if s.Len() != 2 || s.Skipped() != 0 {
		t.Fatalf("after recovery len=%d skipped=%d, want 2 and 0", s.Len(), s.Skipped())
	}
}

func TestStoreGarbageFinalLineSkipped(t *testing.T) {
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(doneRecord(t, "fig4", 1)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644); err != nil {
		t.Fatal(err)
	} else {
		f.WriteString("not json at all\n")
		f.Close()
	}
	s, err = Open(path)
	if err != nil {
		t.Fatalf("open with garbage tail: %v", err)
	}
	defer s.Close()
	if s.Len() != 1 || s.Skipped() != 1 {
		t.Fatalf("len=%d skipped=%d, want 1 and 1", s.Len(), s.Skipped())
	}
}

func TestStoreMidFileCorruptionIsAnError(t *testing.T) {
	path := tempStore(t)
	rec, err := json.Marshal(doneRecord(t, "fig4", 1))
	if err != nil {
		t.Fatal(err)
	}
	content := "garbage line\n" + string(rec) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open = %v, want mid-file corruption error", err)
	}
}

func TestStoreDuplicateRecordsDeduplicated(t *testing.T) {
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first := doneRecord(t, "fig4", 1)
	dup := first
	dup.Result = json.RawMessage(`{"experiment":"fig4","other":true}`)
	if err := s.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(dup); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("len = %d, want dedup to 1", s.Len())
	}
	got, _ := s.Get(first.ID)
	if string(got.Result) != string(first.Result) {
		t.Fatalf("completed record was overwritten: %s", got.Result)
	}
	if s.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1 duplicate", s.Skipped())
	}
}

func TestStoreFailedSupersededByDone(t *testing.T) {
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := doneRecord(t, "fig4", 1)
	failed := rec
	failed.Status = StatusFailed
	failed.Error = "transient"
	failed.Result = nil
	if err := s.Append(failed); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Meta(rec.ID); got.Status != StatusDone || got.Error != "" {
		t.Fatalf("record = %+v, want the later done record, without the failure's error", got)
	}
	s.Close()

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, ok := s.Get(rec.ID)
	if !ok || got.Status != StatusDone || got.Error != "" {
		t.Fatalf("record = %+v, want the later done record to win", got)
	}
}

func TestStoreRejectsSecondOpener(t *testing.T) {
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("second opener acquired the same store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The lock dies with the handle, so a successor process can take over.
	s, err = Open(path)
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	s.Close()
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if err := s.Append(Record{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("x"); ok {
		t.Fatal("nil store remembered a record")
	}
	if s.Len() != 0 || s.List() != nil || s.Close() != nil {
		t.Fatal("nil store not inert")
	}
}

// TestStoreSweepSharesProfiles pins what a sweep costs the index: its
// cells differ in the seed and one other axis, so S seeds × k codecs
// intern k profiles, live and after Open, and every job still reads back
// as the line it came from.
func TestStoreSweepSharesProfiles(t *testing.T) {
	const seeds, codecs = 6, 3
	sw := Sweep{Experiments: []string{"fig4"}, Quick: []bool{true},
		Seeds: []uint64{1, 2, 3, 4, 5, 6}, Codecs: []string{"none", "q8", "topk"}}
	jobs, err := sw.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != seeds*codecs {
		t.Fatalf("the sweep expands to %d jobs, want %d", len(jobs), seeds*codecs)
	}
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r := New(s, -1)
	if _, err := r.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		l := r.Lease("1:w1", 1)
		rec := Record{Status: StatusDone, Elapsed: time.Duration(i + 1), Result: json.RawMessage(`{"experiment":"fig4"}`)}
		if i%5 == 0 {
			rec = Record{Status: StatusFailed, Error: "boom " + l[0].Job.ID()}
		}
		if err := r.Complete(l[0].Job.ID(), l[0].Seq, rec); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	check := func(when string, s *Store) {
		t.Helper()
		if s.Len() != len(jobs) || len(s.profiles) != codecs {
			t.Fatalf("%s: %d jobs share %d profiles, want %d and %d", when, s.Len(), len(s.profiles), len(jobs), codecs)
		}
		indexMatchesFile(t, s, path)
	}
	check("live", s)
	s.Close()
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("after Open", s)
}

// TestStoreAppendIndexesWhatTheLineSays pins the one value json.Marshal
// does not write back as is: a string that is not valid UTF-8, whose bad
// bytes the line holds as U+FFFD. Meta and Get must read what the line
// says, before and after Open, as they do for a loaded record.
func TestStoreAppendIndexesWhatTheLineSays(t *testing.T) {
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := doneRecord(t, "fig4", 1)
	rec.Options.Backend = "\xff"
	rec.Worker = "w\xc3"
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	odd := doneRecord(t, "fig4", 2)
	odd.Options.Codec = `\ufffd` // the escape itself, which decodes to itself
	if err := s.Append(odd); err != nil {
		t.Fatal(err)
	}
	indexMatchesFile(t, s, path)
	if got, _ := s.Meta(rec.ID); got.Options.Backend != "\ufffd" || got.Worker != "w\ufffd" {
		t.Fatalf("Meta reads backend %q, worker %q; the line says %q, %q", got.Options.Backend, got.Worker, "\ufffd", "w\ufffd")
	}
	s.Close()
	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	indexMatchesFile(t, s, path)
}

// TestRunnerListsWhileJobsFinish reads the index (List, a walk of Each,
// Get, a resubmit's dedup) while workers append to it, for the race
// detector: the entry, its profile, its names and its error text are all
// read under the store's lock. Each's walk passes its filter and visits no
// job twice.
func TestRunnerListsWhileJobsFinish(t *testing.T) {
	s, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		if j.Options.Seed%3 == 0 {
			return nil, errors.New("boom")
		}
		return json.RawMessage(`{}`), nil
	}
	r := New(s, 2, WithExecutor(exec))
	defer r.Close()
	var jobs []Job
	for seed := uint64(1); seed <= 200; seed++ {
		jobs = append(jobs, mustJob(t, []string{"fig4", "table1"}[seed%2], experiments.Options{Quick: true, Seed: seed}))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, j := range jobs {
			r.List(StatusDone, "fig4")
			seen := map[string]bool{}
			r.Each("", "table1", func(st *JobState) bool {
				if st.Experiment != "table1" || seen[st.ID] {
					t.Errorf("Each(\"\", table1) visits %s of %s, seen %v", st.ID, st.Experiment, seen[st.ID])
				}
				seen[st.ID] = true
				return true
			})
			r.Get(j.ID())
			if _, err := r.Submit(j); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := r.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	<-done
	r.Wait()
	failed := r.List(StatusFailed, "")
	if len(failed) != 66 {
		t.Fatalf("List holds %d failed jobs, want 66", len(failed))
	}
	for _, st := range failed {
		if st.Error != "boom" {
			t.Fatalf("failed job %s says %q, want boom", st.ID, st.Error)
		}
	}
}

// TestRunnerEachYieldsUnlocked: Each visits what List collects, in its
// order, stops when yield says so, and calls yield with no lock held — a
// consumer may submit, lease and finish jobs from inside the walk, which
// the walk's snapshot does not then show.
func TestRunnerEachYieldsUnlocked(t *testing.T) {
	s, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	r := New(s, -1)
	defer r.Close()
	var jobs []Job
	for seed := uint64(1); seed <= 12; seed++ {
		jobs = append(jobs, mustJob(t, "fig4", experiments.Options{Quick: true, Seed: seed}))
	}
	if _, err := r.SubmitAll(jobs[:8]); err != nil {
		t.Fatal(err)
	}
	for _, l := range r.Lease("1:w1", 4) {
		if err := r.Complete(l.Job.ID(), l.Seq, Record{Status: StatusDone, Result: json.RawMessage(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	want := r.List("", "")
	var got []JobState
	next := 8
	r.Each("", "", func(st *JobState) bool {
		got = append(got, *st)
		if next < len(jobs) {
			if _, err := r.Submit(jobs[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for _, l := range r.Lease("1:w2", 1) {
			if err := r.Complete(l.Job.ID(), l.Seq, Record{Status: StatusFailed, Error: "boom"}); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Each visited %d jobs, List collected %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("Each visits %s at %d, List has %s", got[i].ID, i, want[i].ID)
		}
	}
	visits := 0
	r.Each("", "", func(*JobState) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("Each went on for %d visits after yield returned false at 3", visits)
	}
	if n := len(r.List("", "")); n != len(jobs) {
		t.Fatalf("after the walk the runner lists %d jobs, want %d", n, len(jobs))
	}
}

// TestIDKeyRoundTrips pins the split the index keeps IDs by: an ID of
// Job.ID's form and only that is a digest, every ID splits and rebuilds to
// itself, and splitting allocates nothing.
func TestIDKeyRoundTrips(t *testing.T) {
	id := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1}).ID()
	hexits := id[len("fig4-"):]
	for _, c := range []struct {
		id  string
		odd bool
	}{
		{id, false}, {"-" + hexits, false}, {"a-b-" + hexits, false},
		{"", true}, {"x", true}, {"fig4-" + strings.ToUpper(hexits), true},
		{id[:len(id)-1], true}, {id + "0", true}, {"fig4_" + hexits, true},
	} {
		k := keyOf(c.id)
		if k.odd != c.odd || k.String() != c.id {
			t.Errorf("keyOf(%q) is odd %v and rebuilds %q, want odd %v", c.id, k.odd, k.String(), c.odd)
		}
	}
	if keyOf("") == keyOf("-000000000000000000000000") {
		t.Error(`"" and a zero digest of experiment "" share a key`)
	}
	if n := testing.AllocsPerRun(100, func() { keyOf(id).hash() }); n != 0 {
		t.Errorf("keyOf and hash allocate %v times", n)
	}
}

// TestStoreTableSpreadsCountedIDs loads IDs whose digests are a counter in
// hex, which agree in every byte but the last few: each must still sit
// near the slot its hash names, or a load goes quadratic.
func TestStoreTableSpreadsCountedIDs(t *testing.T) {
	const n = 10000
	var lines []byte
	for i := range n {
		lines = append(lines, fmt.Sprintf(`{"id":"table1-%024x","experiment":"table1","status":"done"}`+"\n", i)...)
	}
	path := tempStore(t)
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	longest, mask := 0, len(s.byID)-1
	for j, v := range s.byID {
		if v != 0 {
			longest = max(longest, (j-int(s.key(int(v-1)).hash()))&mask)
		}
	}
	if s.Len() != n || longest > 200 {
		t.Fatalf("%d jobs; an entry sits %d slots past its hash's, want at most 200", s.Len(), longest)
	}
}

// TestStoreHoldsBothIDForms: the index keeps an ID of Job.ID's form as its
// digest and any other ID as a string, and the two must answer alike. Meta,
// Get, List and Submit's dedup read what each line says, after Append and
// after Open. The odd IDs look canonical but are not: uppercase hex, 23 and
// 25 hex digits, a table1 prefix on a fig4 record. Two IDs share a digest
// under two experiments, and two records move an ID from one form to the
// other by superseding a failed record of another experiment. A record of
// a status the package does not know, "paused", is no finished job, and
// neither form indexes it.
func TestStoreHoldsBothIDForms(t *testing.T) {
	a, b, c := doneRecord(t, "fig4", 1), doneRecord(t, "table1", 2), doneRecord(t, "fig4", 3)
	d, e := doneRecord(t, "fig4", 4), doneRecord(t, "fig4", 5)
	hexOf := func(r Record) string { return r.ID[len(r.Experiment)+1:] }
	as := func(r Record, id, experiment string, status Status) Record {
		r.ID, r.Experiment, r.Status = id, experiment, status
		if status != StatusDone {
			r.Result, r.Error = nil, "boom"
		}
		return r
	}
	recs := []Record{
		a, b,
		as(b, "table1-"+hexOf(a), "table1", StatusDone), // a's digest, table1's prefix
		as(c, "table1-"+hexOf(c), "fig4", StatusDone),
		as(a, "fig4-"+strings.ToUpper(hexOf(a)), "fig4", StatusDone),
		as(a, "fig4-"+hexOf(a)[:23], "fig4", StatusDone),
		as(a, "fig4-"+hexOf(a)+"0", "fig4", StatusFailed),
		as(a, "x", "fig4", StatusDone),
		as(b, "odd", "table1", "paused"),
		as(d, d.ID, "fig4", StatusFailed), as(d, d.ID, "table1", StatusDone), // a digest, then a string
		as(e, e.ID, "table1", StatusFailed), as(e, e.ID, "fig4", StatusDone), // a string, then a digest
	}
	absent := []string{"fig4-" + hexOf(c), "table1-" + hexOf(b)[:23], "fig4-" + strings.ToUpper(hexOf(b)), "y", "odd"}
	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, s *Store) {
		t.Helper()
		indexMatchesFile(t, s, path)
		if list := s.List(); len(list) != len(recs)-3 {
			t.Fatalf("%s: List holds %d jobs, want %d", when, len(list), len(recs)-3)
		}
		for _, id := range absent {
			if _, ok := s.Meta(id); ok {
				t.Fatalf("%s: Meta finds %q, which no record names", when, id)
			}
		}
		if got, _ := s.Meta(d.ID); got.Experiment != "table1" || got.ID != d.ID {
			t.Fatalf("%s: the superseded job reads %s of %s", when, got.ID, got.Experiment)
		}
		r := New(s, -1)
		defer r.Close()
		for seed, want := range []Status{1: StatusDone, 3: StatusQueued, 5: StatusDone} {
			if want == "" {
				continue
			}
			j := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: uint64(seed)})
			if st, err := r.Submit(j); err != nil || st.ID != j.ID() || st.Status != want {
				t.Fatalf("%s: Submit of seed %d reads %s %s, %v; want %s", when, seed, st.ID, st.Status, err, want)
			}
		}
		if st, _ := r.Submit(mustJob(t, "table1", experiments.Options{Quick: true, Seed: 2})); st.ID != b.ID || st.Status != StatusDone {
			t.Fatalf("%s: Submit of table1 reads %s %s", when, st.ID, st.Status)
		}
		if list := r.List("", ""); len(list) != 4 || list[1].Status != StatusQueued || list[3].ID != b.ID {
			t.Fatalf("%s: the runner lists %+v", when, list)
		}
	}
	check("after Append", s)
	s.Close()
	if s, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	check("after Open", s)
}
