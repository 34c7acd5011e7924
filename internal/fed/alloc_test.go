package fed

import (
	"path/filepath"
	"runtime"
	"testing"

	"aergia/internal/experiments"
	"aergia/internal/race"
	"aergia/internal/runner"
)

// controlBytesPerJob is what one no-op job costs the control and an
// in-process worker together, in bytes allocated: submit, lease, grant,
// the wire both ways, the executor's record, the store's line. It is
// measured with pinnedToolchain: another release's runtime and standard
// library allocate differently for reasons that are not a job's cost.
const (
	controlBytesPerJob = 8180
	pinnedToolchain    = "go1.24.0"
)

// TestControlAllocationPerJob pins the bytes a control over a store and one
// worker over loopback allocate per job, over a batch of no-op jobs. The
// tolerance, 1%, is three times the widest spread of five runs at -cpu 2
// and three at each of -cpu 1 and 8 (0.4%); a change to what a job costs
// the service moves this pin, reviewed like a golden. Under any other
// toolchain than pinnedToolchain it reports the figure and skips.
func TestControlAllocationPerJob(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	store, err := runner.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r, _, joinURL := testControlEvery(t, store, noPolling)
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w1", Slots: 2, Execute: instant})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const warm, n = 50, 2000
	jobs := make([]runner.Job, warm+n)
	for i := range jobs {
		job, err := runner.NewJob("fig4", experiments.Options{Quick: true, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	submit := func(jobs []runner.Job) {
		for _, job := range jobs {
			if _, err := r.Submit(job); err != nil {
				t.Fatal(err)
			}
		}
		r.Wait()
	}
	// The first jobs dial the connections and grow the tables.
	submit(jobs[:warm])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	submit(jobs[warm:])
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f B allocated per job", perJob)
	if got := r.Counts()[runner.StatusDone]; got != warm+n {
		t.Fatalf("%d jobs done, want %d", got, warm+n)
	}
	if v := runtime.Version(); v != pinnedToolchain {
		t.Skipf("the pin is measured with %s, not %s", pinnedToolchain, v)
	}
	if lo, hi := controlBytesPerJob*0.99, controlBytesPerJob*1.01; perJob < lo || perJob > hi {
		t.Errorf("a job allocates %.0f B, want %d B ± 1%%", perJob, controlBytesPerJob)
	}
}
