package experiments_test

import (
	"context"
	"strings"
	"testing"

	"aergia/internal/experiments"
	"aergia/internal/runner"
)

// TestPanickingRunFailsTheJob: a run panicking on a batch goroutine, where
// the runner's own recover cannot reach, fails its job through
// runner.ExecuteJob and leaves the process, and the runner's slot, alive.
func TestPanickingRunFailsTheJob(t *testing.T) {
	ok := func(experiments.Options) error { return nil }
	remove := experiments.AddBatchExperiment("test-panicking-run", ok,
		func(experiments.Options) error { panic("collector bug") }, ok)
	defer remove()
	job, err := runner.NewJob("test-panicking-run", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runner.ExecuteJob(context.Background(), job); err == nil ||
		!strings.Contains(err.Error(), "run 1 panicked: collector bug") {
		t.Fatalf("ExecuteJob error %v, want run 1's panic", err)
	}
	r := runner.New(nil, 1)
	defer r.Close()
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if st, _ := r.Get(job.ID()); st.Status != runner.StatusFailed || !strings.Contains(st.Error, "run 1 panicked") {
		t.Fatalf("job after the panic: %s %q", st.Status, st.Error)
	}
	other, err := runner.NewJob("table1", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(other); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if st, _ := r.Get(other.ID()); st.Status != runner.StatusDone {
		t.Fatalf("the next job on the slot: %s %q", st.Status, st.Error)
	}
}
