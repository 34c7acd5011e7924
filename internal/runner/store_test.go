package runner

import (
	"context"
	"encoding/json"
	"errors"
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

// TestRunnerListsWhileJobsFinish reads the index (List, Get, a resubmit's
// dedup) while workers append to it, for the race detector: the entry, its
// profile, its names and its error text are all read under the store's
// lock.
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
