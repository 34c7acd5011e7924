package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"aergia/internal/experiments"
)

// TestRunnerRestartForgetsLeases leases job A, and job B after it failed
// once, then closes the runner and reopens its store. A lease is not
// written: the file holds B's failure alone, A reads as a job nobody
// submitted, B as its failure, nothing counts as leased, and resubmitting
// both runs both.
func TestRunnerRestartForgetsLeases(t *testing.T) {
	path := tempStore(t)
	store, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r := New(store, -1)
	a := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1})
	b := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2})
	if _, err := r.SubmitAll([]Job{a, b}); err != nil {
		t.Fatal(err)
	}
	leases := r.Lease("w1", 2)
	if len(leases) != 2 || leases[1].Job.ID() != b.ID() {
		t.Fatalf("leases = %+v, want A then B", leases)
	}
	if err := r.Complete(b.ID(), leases[1].Seq, Record{Status: StatusFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if st, err := r.Submit(b); err != nil || st.Status != StatusQueued {
		t.Fatalf("resubmitted B = %+v, %v", st, err)
	}
	if again := r.Lease("w1", 1); len(again) != 1 || again[0].Job.ID() != b.ID() {
		t.Fatalf("second lease = %+v, want B", again)
	}
	r.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(file, []byte("\n")); n != 1 {
		t.Fatalf("the store holds %d lines, want B's failure alone:\n%s", n, file)
	}

	store, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var count atomic.Int64
	r = New(store, 1, WithExecutor(countingExecutor(&count)))
	defer r.Close()
	if st, ok := r.Get(a.ID()); ok {
		t.Fatalf("A, leased at the restart, reads %+v; want not found", st)
	}
	if st, _, err := r.Cancel(a.ID()); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel of A = %+v, %v; want ErrUnknownJob", st, err)
	}
	if st, ok := r.Get(b.ID()); !ok || st.Status != StatusFailed || st.Error != "boom" || st.Worker != "w1" {
		t.Fatalf("B reads %+v, %v; want its failure on w1", st, ok)
	}
	if c, n := r.Counts(), r.LeaseCount(); len(c) != 0 || n != 0 {
		t.Fatalf("after the restart Counts = %v, LeaseCount = %d; want nothing", c, n)
	}
	if _, err := r.SubmitAll([]Job{a, b}); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if n := count.Load(); n != 2 {
		t.Fatalf("resubmission ran %d jobs, want both", n)
	}
	for _, j := range []Job{a, b} {
		if st, ok := r.Get(j.ID()); !ok || st.Status != StatusDone {
			t.Fatalf("resubmitted %s reads %+v", j.ID(), st)
		}
	}
}

// TestStoreOpensOldLeaseLines opens testdata/lease-lines.jsonl, which a
// runner that still wrote a line per lease left behind: two runners over
// one store, ten lines, five jobs. fig4 seed 1 was leased and done; seed 2
// failed, was resubmitted and leased again; seed 3 was leased and never
// finished. table1 seed 1 was canceled while queued, and seed 2 was done
// and then leased by the second runner. A job reads from its last terminal
// line and, with none, as not found; resubmitting the five lists and counts
// them as that runner did.
func TestStoreOpensOldLeaseLines(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "lease-lines.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := tempStore(t)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jobs := []Job{
		mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1}),
		mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2}),
		mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 3}),
		mustJob(t, "table1", experiments.Options{Quick: true, Seed: 1}),
		mustJob(t, "table1", experiments.Options{Quick: true, Seed: 2}),
	}
	r := New(s, -1)
	defer r.Close()

	ghost := jobs[2].ID()
	if rec, ok := s.Get(ghost); ok {
		t.Fatalf("%s, whose last line is leased, reads %+v; want not found", ghost, rec)
	}
	if st, _, err := r.Cancel(ghost); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Cancel of %s = %+v, %v; want ErrUnknownJob", ghost, st, err)
	}
	want := []Record{
		{Status: StatusDone, Elapsed: 7 * time.Millisecond, Worker: "w1",
			Result: json.RawMessage(`{"job":"` + jobs[0].ID() + `"}`)},
		{Status: StatusFailed, Elapsed: 3 * time.Millisecond, Error: "boom", Worker: "w1"},
		{Status: StatusCanceled, Error: "canceled before execution"},
		{Status: StatusDone, Elapsed: 7 * time.Millisecond, Worker: "w1",
			Result: json.RawMessage(`{"job":"` + jobs[4].ID() + `"}`)},
	}
	for i, j := range slices.Delete(slices.Clone(jobs), 2, 3) {
		w := want[i]
		w.ID, w.Experiment, w.Options = j.ID(), j.Experiment, j.Options
		got, ok := s.Get(j.ID())
		if !ok || got.ID != w.ID || got.Status != w.Status || got.Elapsed != w.Elapsed ||
			got.Error != w.Error || got.Worker != w.Worker || string(got.Result) != string(w.Result) {
			t.Fatalf("%s reads %+v, %v; want %+v", j.ID(), got, ok, w)
		}
	}

	states, err := r.SubmitAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	statuses := []Status{StatusDone, StatusQueued, StatusQueued, StatusQueued, StatusDone}
	list := r.List("", "")
	if len(states) != len(jobs) || len(list) != len(jobs) {
		t.Fatalf("submitted %d, listed %d; want %d", len(states), len(list), len(jobs))
	}
	for i, j := range jobs {
		if states[i].ID != j.ID() || states[i].Status != statuses[i] ||
			list[i].ID != j.ID() || list[i].Status != statuses[i] {
			t.Fatalf("job %d: submitted %s %s, listed %s %s; want %s %s",
				i, states[i].ID, states[i].Status, list[i].ID, list[i].Status, j.ID(), statuses[i])
		}
	}
	if c := r.Counts(); !maps.Equal(c, map[Status]int{StatusDone: 2, StatusQueued: 3}) {
		t.Fatalf("Counts = %v, want 2 done and 3 queued", c)
	}
}

// TestStoreSkipsUnknownStatuses appends a record of a status the package
// does not know, "paused", and one with no status, as a damaged or a
// future file could hold. Neither is a finished job: after Append, and
// after Open of a copy of the file, the store does not index them and
// counts both in Skipped, Cancel answers ErrUnknownJob rather than
// ErrJobFinished, and Submit runs both jobs.
func TestStoreSkipsUnknownStatuses(t *testing.T) {
	jobs := []Job{
		mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1}),
		mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2}),
	}
	check := func(when string, s *Store) {
		t.Helper()
		defer s.Close()
		if n, skipped := s.Len(), s.Skipped(); n != 0 || skipped != 2 {
			t.Fatalf("%s: the store indexes %d jobs and skipped %d lines; want 0 and 2", when, n, skipped)
		}
		var count atomic.Int64
		r := New(s, 1, WithExecutor(countingExecutor(&count)))
		defer r.Close()
		for _, j := range jobs {
			if st, _, err := r.Cancel(j.ID()); !errors.Is(err, ErrUnknownJob) {
				t.Fatalf("%s: Cancel of %s = %+v, %v; want ErrUnknownJob", when, j.ID(), st, err)
			}
		}
		if _, err := r.SubmitAll(jobs); err != nil {
			t.Fatal(err)
		}
		r.Wait()
		if n := count.Load(); n != 2 {
			t.Fatalf("%s: Submit ran %d jobs, want both", when, n)
		}
	}

	path := tempStore(t)
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, status := range []Status{"paused", ""} {
		j := jobs[i]
		if err := s.Append(Record{ID: j.ID(), Experiment: j.Experiment, Options: j.Options, Status: status}); err != nil {
			t.Fatal(err)
		}
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check("after Append", s)
	copied := filepath.Join(t.TempDir(), "copy.jsonl")
	if err := os.WriteFile(copied, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(copied); err != nil {
		t.Fatal(err)
	}
	check("after Open", s)
}
