package runner

import (
	"encoding/json"
	"path/filepath"
	"runtime"
	"testing"
	"unsafe"

	"aergia/internal/experiments"
	"aergia/internal/race"
)

// retainedBytes reports the live heap after build returns, less the live
// heap before it, each after a collection. keep holds what build made
// reachable until the second reading.
func retainedBytes(build func() (keep any)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	keep := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(keep)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestRunnerRetainsFinishedJobsOnce pins a finished job's in-memory cost:
// once its terminal record is in the store, the store's compact index entry
// is all the runner keeps of it — no JobState, no event stream that
// published nothing, and no table its live maps grew while the jobs were
// queued — and a reopened store holds less, having no order. Both were
// 1.07 kB a job when runner and index each held a full record, 291 and
// 273 B when the index entry held the options JSON of each job, and 167
// and 149 B when it held the ID string, keyed in a Go map, beside a
// string of it in order. With the ID held as its digest they are 93 and
// 75 B; the budgets are those plus 10%.
func TestRunnerRetainsFinishedJobsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("20000 jobs through a store on disk")
	}
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	if size := unsafe.Sizeof(storedRecord{}); size != 56 {
		t.Errorf("an index entry is %d B, want 56", size)
	}
	const n = 20000
	const budget, reopenedBudget = 102, 83 // bytes a finished job
	job := func(i int) Job {
		return mustJob(t, "table1", experiments.Options{Quick: true, Seed: uint64(1_000_000 + i)})
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	store, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var r *Runner
	perJob := retainedBytes(func() any {
		r = New(store, -1)
		for i := 0; i < n; i++ {
			if _, err := r.Submit(job(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			l := r.Lease("1:w1", 1)
			if err := r.Complete(l[0].Job.ID(), l[0].Seq, Record{Status: StatusDone, Elapsed: 1,
				Result: json.RawMessage(`{"experiment":"table1"}`)}); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}) / n
	t.Logf("runner + store retain %.0f B a finished job", perJob)
	if perJob > budget {
		t.Errorf("runner + store retain %.0f B a finished job, budget %d", perJob, budget)
	}
	r.mu.Lock()
	live, streams := len(r.jobs), len(r.streams)
	r.mu.Unlock()
	if live != 0 || streams != 0 {
		t.Errorf("after every job finished the runner holds %d jobs and %d streams, want none", live, streams)
	}
	if st, ok := r.Get(job(n - 1).ID()); !ok || st.Status != StatusDone || st.Worker != "1:w1" {
		t.Errorf("finished job reads %+v, %v from the store", st, ok)
	}
	r.Close()
	store.Close()

	var reopened *Store
	perRecord := retainedBytes(func() any {
		reopened, err = Open(path)
		if err != nil {
			t.Fatal(err)
		}
		return reopened
	}) / n
	defer reopened.Close()
	t.Logf("a reopened store retains %.0f B a record", perRecord)
	if perRecord > reopenedBudget {
		t.Errorf("a reopened store retains %.0f B a record, budget %d", perRecord, reopenedBudget)
	}
	if reopened.Len() != n {
		t.Fatalf("reopened store holds %d jobs, want %d", reopened.Len(), n)
	}
}
