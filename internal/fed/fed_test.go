package fed

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aergia/internal/obs"
	"aergia/internal/runner"
)

// testControl builds a pure-control-plane runner (no local slots) with a
// fast heartbeat, plus an HTTP join endpoint, and tears it all down.
func testControl(t *testing.T, store *runner.Store) (*runner.Runner, *Control, string) {
	t.Helper()
	return testControlEvery(t, store, 40*time.Millisecond)
}

// testControlEvery is testControl at a chosen heartbeat.
func testControlEvery(t *testing.T, store *runner.Store, heartbeat time.Duration) (*runner.Runner, *Control, string) {
	t.Helper()
	r := runner.New(store, -1)
	c, err := NewControl(r, ControlConfig{Heartbeat: heartbeat, Misses: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(c.HandleJoin))
	t.Cleanup(func() {
		ts.Close()
		if err := c.Close(); err != nil {
			t.Errorf("control close: %v", err)
		}
		r.Close()
	})
	return r, c, ts.URL
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func submitSeeds(t *testing.T, r *runner.Runner, n int) []runner.Job {
	t.Helper()
	var jobs []runner.Job
	for seed := uint64(1); seed <= uint64(n); seed++ {
		job := seedJob(t, seed)
		jobs = append(jobs, job)
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	return jobs
}

func allDone(r *runner.Runner, jobs []runner.Job) func() bool {
	return func() bool {
		for _, job := range jobs {
			st, ok := r.Get(job.ID())
			if !ok || st.Status != runner.StatusDone {
				return false
			}
		}
		return true
	}
}

// TestFederationExactlyOnceAcrossWorkers: a sweep submitted to the control
// is drained by two workers, every job executes exactly once, and the
// store attributes each result to the worker that ran it.
func TestFederationExactlyOnceAcrossWorkers(t *testing.T) {
	store, err := runner.Open(t.TempDir() + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r, _, joinURL := testControl(t, store)

	var mu sync.Mutex
	executions := map[string]int{}
	exec := func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		mu.Lock()
		executions[j.ID()]++
		mu.Unlock()
		time.Sleep(15 * time.Millisecond) // force the load to spread
		return json.RawMessage(fmt.Sprintf(`{"job":%q}`, j.ID())), nil
	}
	for _, name := range []string{"w1", "w2"} {
		w, err := Join(WorkerConfig{ControlURL: joinURL, Name: name, Slots: 2, Execute: exec})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}

	jobs := submitSeeds(t, r, 12)
	waitFor(t, 10*time.Second, "all jobs done", allDone(r, jobs))

	mu.Lock()
	defer mu.Unlock()
	if len(executions) != len(jobs) {
		t.Fatalf("executed %d distinct jobs, want %d", len(executions), len(jobs))
	}
	for id, n := range executions {
		if n != 1 {
			t.Fatalf("job %s executed %d times, want exactly once", id, n)
		}
	}
	perWorker := map[string]int{}
	for _, job := range jobs {
		rec, ok := store.Meta(job.ID())
		if !ok || rec.Status != runner.StatusDone || rec.Worker == "" {
			t.Fatalf("record %s = %+v, want done with a worker attribution", job.ID(), rec)
		}
		perWorker[rec.Worker]++
	}
	if len(perWorker) != 2 {
		t.Fatalf("work went to %v, want both workers", perWorker)
	}
}

// TestFederationRequeuesDeadWorkersLeases: a worker dies (no Bye) holding
// leases; after the heartbeat timeout the control requeues them and a
// survivor finishes the jobs, with the dead worker's late results fenced.
func TestFederationRequeuesDeadWorkersLeases(t *testing.T) {
	r, _, joinURL := testControl(t, nil)

	release := make(chan struct{})
	var startedMu sync.Mutex
	started := map[string]bool{}
	stall := func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		startedMu.Lock()
		started[j.ID()] = true
		startedMu.Unlock()
		<-release
		return json.RawMessage(`{"late":true}`), nil
	}
	victim, err := Join(WorkerConfig{ControlURL: joinURL, Name: "victim", Slots: 2, Execute: stall})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Kill()

	jobs := submitSeeds(t, r, 2)
	waitFor(t, 5*time.Second, "victim to start both jobs", func() bool {
		startedMu.Lock()
		defer startedMu.Unlock()
		return len(started) == 2
	})
	victim.Kill() // SIGKILL-equivalent: no Bye, heartbeats just stop

	instant := func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		return json.RawMessage(`{"survivor":true}`), nil
	}
	survivor, err := Join(WorkerConfig{ControlURL: joinURL, Name: "survivor", Slots: 2, Execute: instant})
	if err != nil {
		t.Fatal(err)
	}
	defer survivor.Close()

	waitFor(t, 10*time.Second, "survivor to finish the requeued jobs", allDone(r, jobs))
	for _, job := range jobs {
		st, _ := r.Get(job.ID())
		if !strings.Contains(st.Worker, "survivor") {
			t.Fatalf("job %s finished by %q, want the survivor", job.ID(), st.Worker)
		}
	}
	// Let the dead worker's stalled executors return: their results ride a
	// closed peer (or arrive stale) and must not disturb the final states.
	close(release)
	time.Sleep(50 * time.Millisecond)
	for _, job := range jobs {
		if st, _ := r.Get(job.ID()); st.Status != runner.StatusDone || !strings.Contains(st.Worker, "survivor") {
			t.Fatalf("job %s mutated by fenced result: %+v", job.ID(), st)
		}
	}
}

// TestFederationCancelPropagatesToWorker: canceling a job leased to a live
// worker cancels the executor's context over the wire, and the job lands
// terminal canceled on the control.
func TestFederationCancelPropagatesToWorker(t *testing.T) {
	r, c, joinURL := testControl(t, nil)

	started := make(chan string, 4)
	exec := func(ctx context.Context, j runner.Job) (json.RawMessage, error) {
		started <- j.ID()
		<-ctx.Done()
		return nil, runner.ErrCanceled
	}
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w1", Slots: 2, Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	jobs := submitSeeds(t, r, 1)
	id := jobs[0].ID()
	select {
	case got := <-started:
		if got != id {
			t.Fatalf("worker started %s, want %s", got, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}
	if st, err := c.CancelJob(id); err != nil || st.Status != runner.StatusLeased {
		t.Fatalf("cancel = %+v, %v", st, err)
	}
	waitFor(t, 5*time.Second, "job to finalize canceled", func() bool {
		st, _ := r.Get(id)
		return st.Status == runner.StatusCanceled
	})
	waitFor(t, 5*time.Second, "worker to release the slot", func() bool {
		return w.Active() == 0
	})
}

// TestFederationStreamsRemoteEvents: round events published by a job
// executing on a worker surface in the control-side subscription, exactly
// as if the job ran locally.
func TestFederationStreamsRemoteEvents(t *testing.T) {
	r, _, joinURL := testControl(t, nil)

	exec := func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		j.Options.Events.Publish(obs.RoundEvent{Round: 1, Accuracy: 0.5})
		j.Options.Events.Publish(obs.RoundEvent{Round: 2, Accuracy: 0.8})
		return json.RawMessage(`{}`), nil
	}
	jobs := submitSeeds(t, r, 1)
	ch, cancel, err := r.Subscribe(jobs[0].ID(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w1", Slots: 1, Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var rounds []int
	for ev := range ch {
		rounds = append(rounds, ev.Round)
	}
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 2 {
		t.Fatalf("control-side subscriber saw rounds %v, want [1 2]", rounds)
	}
	if st, _ := r.Get(jobs[0].ID()); st.Status != runner.StatusDone {
		t.Fatalf("remote job state = %+v", st)
	}
}

// TestWorkerSurvivesPanickingExecutor: a job whose executor panics is
// reported failed, as a local slot's would be, and the worker takes its
// next lease on the same slot instead of dying with the job.
func TestWorkerSurvivesPanickingExecutor(t *testing.T) {
	r, _, joinURL := testControl(t, nil)
	exec := func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		if j.Options.Seed == 1 {
			panic("executor bug")
		}
		return json.RawMessage(`{}`), nil
	}
	jobs := submitSeeds(t, r, 2)
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w1", Slots: 1, Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitFor(t, 5*time.Second, "both jobs to finish", func() bool {
		first, _ := r.Get(jobs[0].ID())
		second, _ := r.Get(jobs[1].ID())
		return first.Status == runner.StatusFailed && second.Status == runner.StatusDone
	})
	if st, _ := r.Get(jobs[0].ID()); !strings.Contains(st.Error, "panicked") || !strings.Contains(st.Worker, "w1") {
		t.Fatalf("panicked job = %+v, want failed on w1 with the panic", st)
	}
	waitFor(t, 5*time.Second, "worker to free its slot", func() bool { return w.Active() == 0 })
}

// TestWorkerReportsAnOversizedResultFailed: a record over the wire's cap
// for a result (16 MiB) cannot cross to the control, so the worker reports
// the job failed at once, with an error that names the cap, instead of
// leaving it to a heartbeat timeout; its next job lands as usual.
func TestWorkerReportsAnOversizedResultFailed(t *testing.T) {
	r, _, joinURL := testControlEvery(t, nil, noPolling)
	huge := make(json.RawMessage, 16<<20)
	exec := func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		if j.Options.Seed == 1 {
			return huge, nil
		}
		return json.RawMessage(`{}`), nil
	}
	jobs := submitSeeds(t, r, 2)
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w1", Slots: 1, Execute: exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	waitFor(t, 5*time.Second, "both jobs to finish", func() bool {
		first, _ := r.Get(jobs[0].ID())
		second, _ := r.Get(jobs[1].ID())
		return first.Status == runner.StatusFailed && second.Status == runner.StatusDone
	})
	if st, _ := r.Get(jobs[0].ID()); !strings.Contains(st.Error, "result frame") ||
		!strings.Contains(st.Error, "cap of 16777216 bytes") || !strings.Contains(st.Worker, "w1") {
		t.Fatalf("oversized job = %+v, want failed on w1 naming the result cap", st)
	}
}
