package runner

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"aergia/internal/experiments"
)

// TestRunnerCountsMatchListTally pins Counts, which /healthz serves in
// O(1), to what it replaces: a tally of List by status. It must hold after
// every kind of transition — submit, dedup of live, finished and
// earlier-life jobs, lease, complete, a local failure, cancel of a queued
// and of a leased job, and Requeue — with a store, where finished jobs
// live in its index, and without one.
func TestRunnerCountsMatchListTally(t *testing.T) {
	for _, name := range []string{"store", "no store"} {
		t.Run(name, func(t *testing.T) {
			job := func(seed uint64) Job {
				return mustJob(t, "table1", experiments.Options{Quick: true, Seed: seed})
			}
			running, leased, canceled, requeued, failing, earlier := job(1), job(2), job(3), job(4), job(5), job(6)
			var store *Store
			if name == "store" {
				var err error
				if store, err = Open(tempStore(t)); err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				if err := store.Append(doneRecord(t, "table1", 6)); err != nil {
					t.Fatal(err)
				}
			}
			started := make(chan struct{}, 8)
			release := make(chan struct{})
			exec := func(_ context.Context, j Job) (json.RawMessage, error) {
				if j.ID() == failing.ID() {
					return nil, errors.New("boom")
				}
				if j.ID() == running.ID() {
					started <- struct{}{}
					<-release
				}
				return json.RawMessage(`{}`), nil
			}
			r := New(store, 1, WithExecutor(exec))
			defer r.Close()
			releaseOnce := sync.OnceFunc(func() { close(release) })
			defer releaseOnce() // before Close, which waits for the held slot
			check := func(step string) {
				t.Helper()
				all := r.List("", "")
				tally := map[Status]int{}
				for _, st := range all {
					tally[st.Status]++
				}
				if got := r.Counts(); !maps.Equal(got, tally) {
					t.Fatalf("after %s: Counts = %v, List tallies %v", step, got, tally)
				}
				// List's filter, which the store applies to its entries,
				// passes what filtering the whole list passes.
				for _, f := range []filter{{StatusQueued, ""}, {StatusRunning, ""}, {StatusLeased, ""},
					{StatusDone, ""}, {StatusFailed, ""}, {StatusCanceled, "table1"}, {"", "table1"}, {"", "fig4"}} {
					want := slices.DeleteFunc(slices.Clone(all), func(st JobState) bool {
						return f.status != "" && st.Status != f.status || f.experiment != "" && st.Experiment != f.experiment
					})
					if got := r.List(f.status, f.experiment); !reflect.DeepEqual(got, want) {
						t.Fatalf("after %s: List(%q, %q) = %v, want %v", step, f.status, f.experiment, got, want)
					}
				}
			}
			// Each check runs where no job can move under it: while the
			// slot is held, or after Wait.
			submit := func(jobs ...Job) {
				t.Helper()
				for _, j := range jobs {
					if _, err := r.Submit(j); err != nil {
						t.Fatal(err)
					}
				}
			}

			check("start")
			submit(running)
			<-started
			check("submit")
			submit(leased, canceled, requeued, failing)
			check("submit behind a busy slot")
			submit(running, leased)
			check("dedup of live jobs")
			if got := r.Lease("1:w1", 2); len(got) != 2 {
				t.Fatalf("leased %d jobs, want 2", len(got))
			}
			check("lease")
			l := r.Lease("2:w2", 1)
			check("second lease")
			if err := r.Complete(leased.ID(), 1, Record{Status: StatusDone, Elapsed: 7}); err != nil {
				t.Fatal(err)
			}
			check("complete")
			if _, owner, err := r.Cancel(canceled.ID()); err != nil || owner != "1:w1" {
				t.Fatalf("cancel of a leased job = %q, %v", owner, err)
			}
			check("cancel of a leased job")
			if n, c := r.Requeue("1:w1"); n != 0 || c != 1 {
				t.Fatalf("requeue = %d, %d; want 0 requeued, 1 canceled", n, c)
			}
			check("requeue of a canceled lease")
			if n, c := r.Requeue("2:w2"); n != 1 || c != 0 || l[0].Job.ID() != requeued.ID() {
				t.Fatalf("requeue = %d, %d of %s; want %s back in the queue", n, c, l[0].Job.ID(), requeued.ID())
			}
			check("requeue")
			if _, _, err := r.Cancel(requeued.ID()); err != nil {
				t.Fatal(err)
			}
			check("cancel of a queued job")
			releaseOnce()
			r.Wait()
			check("a local run and a local failure")
			submit(running, leased, earlier)
			r.Wait()
			check("dedup of finished jobs and an earlier life's")
			submit(failing, canceled, requeued)
			r.Wait()
			check("reruns of failed and canceled jobs")
			want := map[Status]int{StatusDone: 5, StatusFailed: 1}
			if got := r.Counts(); !maps.Equal(got, want) {
				t.Fatalf("final Counts = %v, want %v", got, want)
			}
		})
	}
}
