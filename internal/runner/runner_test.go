package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aergia/internal/experiments"
	"aergia/internal/hier"
	"aergia/internal/obs"
)

// countingExecutor returns an executor that counts executions and yields a
// deterministic payload per job.
func countingExecutor(count *atomic.Int64) func(context.Context, Job) (json.RawMessage, error) {
	return func(_ context.Context, j Job) (json.RawMessage, error) {
		count.Add(1)
		return json.RawMessage(fmt.Sprintf(`{"job":%q}`, j.ID())), nil
	}
}

func quickSweep() Sweep {
	return Sweep{
		Experiments: []string{"fig4", "table1"},
		Seeds:       []uint64{1, 2},
		Quick:       []bool{true},
	}
}

func TestSweepExpandCartesian(t *testing.T) {
	jobs, err := quickSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 4 {
		t.Fatalf("expanded %d jobs, want 2 experiments × 2 seeds = 4", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.ID()] {
			t.Fatalf("duplicate job id %s", j.ID())
		}
		seen[j.ID()] = true
		if j.Options.Backend != "serial" || !j.Options.Quick {
			t.Fatalf("job options not normalized: %+v", j.Options)
		}
	}
}

func TestSweepExpandDedupsNormalizedCells(t *testing.T) {
	// "", "serial" and the alias "parallel" name one backend, so the three
	// cells collapse into one job.
	jobs, err := Sweep{
		Experiments: []string{"fig4"},
		Backends:    []string{"", "serial", "parallel"},
		Quick:       []bool{true},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("expanded %d jobs, want 1 after normalization dedup", len(jobs))
	}
}

// TestSweepExpandFloat32Axis pins the dtype sweep axis: float64 and
// float32 are distinct cells, and each alias collapses onto its twin.
func TestSweepExpandFloat32Axis(t *testing.T) {
	jobs, err := Sweep{
		Experiments: []string{"fig4"},
		Backends:    []string{"serial", "parallel", "serial32", "parallel32"},
		Quick:       []bool{true},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].Options.Backend != "serial" || jobs[1].Options.Backend != "serial32" {
		t.Fatalf("expanded %+v, want one serial and one serial32 job", jobs)
	}
}

func TestSweepExpandRejectsBadCells(t *testing.T) {
	if _, err := (Sweep{}).Expand(); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := (Sweep{Experiments: []string{"fig99"}}).Expand(); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := (Sweep{Experiments: []string{"fig4"}, Backends: []string{"quantum"}}).Expand(); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestJobIDDeterministicAcrossSpellings(t *testing.T) {
	a, err := NewJob("fig4", experiments.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed 0 means 1, "" means serial, "parallel" is its alias and workers
	// select nothing: all spellings of the default must map to one job.
	for _, opt := range []experiments.Options{
		{Seed: 1, Backend: "serial", Workers: 3},
		{Backend: "parallel", Workers: 4},
	} {
		b, err := NewJob("fig4", opt)
		if err != nil {
			t.Fatal(err)
		}
		if a.ID() != b.ID() {
			t.Fatalf("%+v got id %s, the default's is %s", opt, b.ID(), a.ID())
		}
	}
	c, err := NewJob("fig4", experiments.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() == c.ID() {
		t.Fatal("different seeds share an id")
	}
}

// TestJobIDCachedAtAdmissionIsTheHash: the ID NewJob carries with the job is
// the one a job decoded from its own JSON (a worker's view, and every record
// written before the cache existed) computes, and it never reaches the wire.
func TestJobIDCachedAtAdmissionIsTheHash(t *testing.T) {
	job := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 7})
	if job.id == "" {
		t.Fatal("NewJob left the ID to be hashed at every use")
	}
	spec, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"experiment":"fig4","options":` + string(mustMarshal(t, job.Options)) + `}`; string(spec) != want {
		t.Fatalf("job spec = %s, want %s", spec, want)
	}
	var decoded Job
	if err := json.Unmarshal(spec, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.id != "" || decoded.ID() != job.ID() {
		t.Fatalf("decoded job: cached %q, hashed %s, want none and %s", decoded.id, decoded.ID(), job.ID())
	}
	if want := "fig4-4dc4c926d2ed65cbda3421a5"; job.ID() != want {
		t.Fatalf("job ID = %s, want %s as at the parent commit", job.ID(), want)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunnerRunsSweepAndPersists(t *testing.T) {
	store, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var count atomic.Int64
	r := New(store, 4, WithExecutor(countingExecutor(&count)))
	defer r.Close()

	jobs, err := quickSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}
	states, err := r.SubmitAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("submitted %d, want 4", len(states))
	}
	r.Wait()
	if got := count.Load(); got != 4 {
		t.Fatalf("executed %d jobs, want 4", got)
	}
	for _, job := range jobs {
		st, ok := r.Get(job.ID())
		if !ok || st.Status != StatusDone {
			t.Fatalf("job %s state = %+v", job.ID(), st)
		}
		if len(st.Result) != 0 {
			t.Fatalf("job %s snapshot retains a result copy the store already owns", job.ID())
		}
		rec, ok := store.Get(job.ID())
		if !ok || rec.Status != StatusDone || len(rec.Result) == 0 {
			t.Fatalf("job %s not persisted: %+v", job.ID(), rec)
		}
		if rec.Elapsed <= 0 {
			t.Fatalf("job %s has no wall-clock: %+v", job.ID(), rec)
		}
		if full, _ := r.Result(job.ID()); string(full.Result) != string(rec.Result) {
			t.Fatalf("job %s Result lookup diverged from store", job.ID())
		}
	}
}

func TestRunnerDedupsInFlightDuplicates(t *testing.T) {
	var count atomic.Int64
	r := New(nil, 2, WithExecutor(countingExecutor(&count)))
	defer r.Close()
	job, err := NewJob("fig4", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	r.Wait()
	if got := count.Load(); got != 1 {
		t.Fatalf("executed %d times, want 1", got)
	}
}

func TestRunnerResumesHalfFinishedSweep(t *testing.T) {
	path := tempStore(t)
	jobs, err := quickSweep().Expand()
	if err != nil {
		t.Fatal(err)
	}

	// First life: the process crashes after completing half the sweep.
	store, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs[:2] {
		rec := Record{
			ID:         job.ID(),
			Experiment: job.Experiment,
			Options:    job.Options,
			Status:     StatusDone,
			Elapsed:    1,
			Result:     json.RawMessage(fmt.Sprintf(`{"job":%q}`, job.ID())),
		}
		if err := store.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()

	// Second life: the full sweep is resubmitted; only the missing half
	// may execute.
	store, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var count atomic.Int64
	r := New(store, 2, WithExecutor(countingExecutor(&count)))
	defer r.Close()
	states, err := r.SubmitAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	// The completed half is answered synchronously from the store; the
	// payload stays store-owned and is attached on Result lookups.
	for i, st := range states[:2] {
		if st.Status != StatusDone {
			t.Fatalf("resumed job %d not served from store: %+v", i, st)
		}
		full, ok := r.Result(st.ID)
		if !ok || len(full.Result) == 0 {
			t.Fatalf("resumed job %d has no retrievable result: %+v", i, full)
		}
	}
	r.Wait()
	if got := count.Load(); got != 2 {
		t.Fatalf("executed %d jobs on resume, want 2", got)
	}
	if store.Len() != 4 {
		t.Fatalf("store has %d records, want 4", store.Len())
	}
}

func TestRunnerRetriesFailedJobs(t *testing.T) {
	var attempts atomic.Int64
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		if attempts.Add(1) == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return json.RawMessage(`{"ok":true}`), nil
	}
	store, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := New(store, 1, WithExecutor(exec))
	defer r.Close()
	job, err := NewJob("fig4", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if st, _ := r.Get(job.ID()); st.Status != StatusFailed || st.Error == "" {
		t.Fatalf("first attempt state = %+v, want failed", st)
	}
	// Resubmitting a failed job re-runs it.
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if st, _ := r.Get(job.ID()); st.Status != StatusDone {
		t.Fatalf("retry state = %+v, want done", st)
	}
	if rec, _ := store.Get(job.ID()); rec.Status != StatusDone {
		t.Fatalf("store record = %+v, want the done record to win", rec)
	}
}

// TestCloseAbandonsQueuedJobs pins the daemon's shutdown story: Close
// lets the in-flight job finish but abandons the queue instead of
// draining it (abandoned jobs were never persisted, so they resume on the
// next submission against the same store).
func TestCloseAbandonsQueuedJobs(t *testing.T) {
	started := make(chan struct{}, 3)
	release := make(chan struct{})
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		started <- struct{}{}
		<-release
		return json.RawMessage(`{}`), nil
	}
	r := New(nil, 1, WithExecutor(exec))
	var jobs []Job
	for seed := uint64(1); seed <= 3; seed++ {
		job, err := NewJob("fig4", experiments.Options{Quick: true, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	<-started // first job is in flight, two are queued
	closed := make(chan struct{})
	go func() { r.Close(); close(closed) }()
	// Release the in-flight job only once Close has marked the runner
	// closed (and cleared the queue).
	for {
		r.mu.Lock()
		c := r.closed
		r.mu.Unlock()
		if c {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-closed
	var done, queued int
	for _, job := range jobs {
		switch st, _ := r.Get(job.ID()); st.Status {
		case StatusDone:
			done++
		case StatusQueued:
			queued++
		}
	}
	if done != 1 || queued != 2 {
		t.Fatalf("after Close: %d done, %d queued; want 1 and 2", done, queued)
	}
}

func TestRunnerRecoversFromPanickingExecutor(t *testing.T) {
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		panic("collector bug")
	}
	r := New(nil, 1, WithExecutor(exec))
	defer r.Close()
	job, err := NewJob("fig4", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	r.Wait() // must not hang on a dead worker slot
	st, _ := r.Get(job.ID())
	if st.Status != StatusFailed || !strings.Contains(st.Error, "panicked") {
		t.Fatalf("state after panic = %+v", st)
	}
	// The slot survived: the runner still executes new work.
	var count atomic.Int64
	r2 := New(nil, 1, WithExecutor(countingExecutor(&count)))
	defer r2.Close()
	other, err := NewJob("table1", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(job); err != nil { // retry the panicking job: fails again, still no hang
		t.Fatal(err)
	}
	r.Wait()
	if _, err := r2.Submit(other); err != nil {
		t.Fatal(err)
	}
	r2.Wait()
	if count.Load() != 1 {
		t.Fatalf("fresh runner executed %d jobs, want 1", count.Load())
	}
}

// TestRunnerSurfacesPersistFailures closes the store's file out from
// under the runner so every Append fails, and checks that neither a
// successful nor a failing job, nor a cancel the runner decides, hides the
// persistence error.
func TestRunnerSurfacesPersistFailures(t *testing.T) {
	store, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	store.Close() // subsequent Appends fail on the closed file

	r := New(store, 1, WithExecutor(func(context.Context, Job) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}))
	defer r.Close()
	job, err := NewJob("fig4", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	if st, _ := r.Get(job.ID()); st.Status != StatusFailed || !strings.Contains(st.Error, "append") {
		t.Fatalf("computed-but-unpersisted job = %+v, want failed with append error", st)
	}

	r2 := New(store, 1, WithExecutor(func(context.Context, Job) (json.RawMessage, error) {
		return nil, fmt.Errorf("job broke")
	}))
	defer r2.Close()
	other, err := NewJob("table1", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Submit(other); err != nil {
		t.Fatal(err)
	}
	r2.Wait()
	st, _ := r2.Get(other.ID())
	if st.Status != StatusFailed || !strings.Contains(st.Error, "job broke") || !strings.Contains(st.Error, "persist:") {
		t.Fatalf("failed-and-unpersisted job = %+v, want both errors surfaced", st)
	}

	r3 := New(store, -1)
	defer r3.Close()
	queued, err := NewJob("fig4", experiments.Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Submit(queued); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r3.Cancel(queued.ID()); err != nil {
		t.Fatal(err)
	}
	st, _ = r3.Get(queued.ID())
	if st.Status != StatusCanceled || !strings.Contains(st.Error, "canceled before execution") || !strings.Contains(st.Error, "persist:") {
		t.Fatalf("canceled-and-unpersisted job = %+v, want the cancel and the persist error", st)
	}
}

// TestRunnerResultBytesMatchDirectRun is the acceptance property of the
// service layer: what the store persists for a job is byte-identical to
// what a direct in-process run of the same experiment at the same options
// produces (and hence to `aergia -experiment <id> -json`).
func TestRunnerResultBytesMatchDirectRun(t *testing.T) {
	store, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r := New(store, 2)
	defer r.Close()

	sweep := Sweep{
		Experiments: []string{"fig4", "table1", "profiler", "ablation-freeze"},
		Seeds:       []uint64{3},
		Quick:       []bool{true},
	}
	jobs, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	for _, job := range jobs {
		rec, ok := store.Get(job.ID())
		if !ok || rec.Status != StatusDone {
			t.Fatalf("job %s: %+v", job.ID(), rec)
		}
		direct, err := experiments.Run(job.Experiment, job.Options)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Result) != string(want) {
			t.Fatalf("job %s result diverged from direct run:\nstore:  %s\ndirect: %s",
				job.ID(), rec.Result, want)
		}
	}
}

// TestSweepExpandChaosAxis pins the churn-sweep axis: chaos specs grid
// like any other axis, the empty spec is the fault-free default cell, and
// a bad spec fails the whole expansion.
func TestSweepExpandChaosAxis(t *testing.T) {
	jobs, err := Sweep{
		Experiments: []string{"fig4"},
		Quick:       []bool{true},
		Chaos:       []string{"", "churn=0.3,rejoin=1"},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("expanded %d jobs, want 2 chaos cells", len(jobs))
	}
	if !jobs[0].Options.Chaos.IsZero() {
		t.Fatalf("first cell should be fault-free: %+v", jobs[0].Options.Chaos)
	}
	if jobs[1].Options.Chaos.Churn != 0.3 {
		t.Fatalf("second cell lost its plan: %+v", jobs[1].Options.Chaos)
	}
	// The fault-free chaos cell is the same job as a sweep without the
	// axis, so stores populated before the axis existed still dedup.
	plain, err := Sweep{Experiments: []string{"fig4"}, Quick: []bool{true}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].ID() != jobs[0].ID() {
		t.Fatalf("fault-free cell id %s != pre-chaos id %s", jobs[0].ID(), plain[0].ID())
	}
	if _, err := (Sweep{Experiments: []string{"fig4"}, Chaos: []string{"flux=1"}}).Expand(); err == nil {
		t.Fatal("bad chaos spec accepted")
	}
}

// TestSweepExpandCodecAxis pins the bandwidth-sweep axis: codecs grid like
// any other axis, "" and "none" normalize to the same raw cell (deduped,
// with the pre-codec job ID), and an unknown codec fails the expansion.
func TestSweepExpandCodecAxis(t *testing.T) {
	jobs, err := Sweep{
		Experiments: []string{"fig4"},
		Quick:       []bool{true},
		Codecs:      []string{"", "none", "q8", "topk"},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 {
		t.Fatalf("expanded %d jobs, want 3 ('' and 'none' dedup)", len(jobs))
	}
	if jobs[0].Options.Codec != "" || jobs[1].Options.Codec != "q8" || jobs[2].Options.Codec != "topk" {
		t.Fatalf("codec cells = %q, %q, %q", jobs[0].Options.Codec, jobs[1].Options.Codec, jobs[2].Options.Codec)
	}
	// The raw codec cell is the same job as a sweep without the axis, so
	// stores populated before the axis existed still dedup.
	plain, err := Sweep{Experiments: []string{"fig4"}, Quick: []bool{true}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].ID() != jobs[0].ID() {
		t.Fatalf("raw cell id %s != pre-codec id %s", jobs[0].ID(), plain[0].ID())
	}
	if _, err := (Sweep{Experiments: []string{"fig4"}, Codecs: []string{"gzip"}}).Expand(); err == nil {
		t.Fatal("bad codec accepted")
	}
}

// TestSweepExpandHierAxes pins the scale-out sweep axes: sampling fractions
// and edge tiers grid like any other axis, the inert cells (sample 0 or 1,
// tiers 0) normalize to the flat default with the pre-hier job ID, and an
// out-of-range fraction fails the expansion.
func TestSweepExpandHierAxes(t *testing.T) {
	jobs, err := Sweep{
		Experiments: []string{"fig4"},
		Quick:       []bool{true},
		Samples:     []float64{0, 1, 0.25},
		Tiers:       []int{0, 4},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 3 samples x 2 tiers = 6 cells; 0 and 1 sample dedup, so 4 survive.
	if len(jobs) != 4 {
		t.Fatalf("expanded %d jobs, want 4 after inert-sample dedup", len(jobs))
	}
	if !jobs[0].Options.Hier.IsZero() {
		t.Fatalf("first cell should be flat: %+v", jobs[0].Options.Hier)
	}
	want := []hier.Options{{}, {Tiers: 4}, {Sample: 0.25}, {Sample: 0.25, Tiers: 4}}
	for i, job := range jobs {
		if job.Options.Hier != want[i] {
			t.Fatalf("cell %d hier = %+v, want %+v", i, job.Options.Hier, want[i])
		}
	}
	// The flat cell is the same job as a sweep without the axes, so stores
	// populated before they existed still dedup.
	plain, err := Sweep{Experiments: []string{"fig4"}, Quick: []bool{true}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].ID() != jobs[0].ID() {
		t.Fatalf("flat cell id %s != pre-hier id %s", jobs[0].ID(), plain[0].ID())
	}
	if _, err := (Sweep{Experiments: []string{"fig4"}, Samples: []float64{1.5}}).Expand(); err == nil {
		t.Fatal("out-of-range sampling fraction accepted")
	}
	if _, err := (Sweep{Experiments: []string{"fig4"}, Tiers: []int{-1}}).Expand(); err == nil {
		t.Fatal("negative tier count accepted")
	}
}

// TestRunnerSubscribeStreamsJobEvents: a subscriber attached between Submit
// and execution sees the events the job publishes into Options.Events and
// the channel closes when the job finishes.
func TestRunnerSubscribeStreamsJobEvents(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		close(started)
		<-release
		j.Options.Events.Publish(obs.RoundEvent{Round: 1, Accuracy: 0.5})
		j.Options.Events.Publish(obs.RoundEvent{Round: 2, Accuracy: 0.7})
		return json.RawMessage(`{}`), nil
	}
	r := New(nil, 1, WithExecutor(exec))
	defer r.Close()

	job := Job{Experiment: "fig4", Options: experiments.Options{Quick: true}}
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := r.Subscribe(job.ID(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	<-started
	close(release)

	var rounds []int
	for ev := range ch {
		rounds = append(rounds, ev.Round)
	}
	if len(rounds) != 2 || rounds[0] != 1 || rounds[1] != 2 {
		t.Fatalf("subscriber saw rounds %v, want [1 2]", rounds)
	}
	r.Wait()

	// The stream is closed but history survives: a late subscriber drains
	// the same events from an already-closed channel.
	late, cancel2, err := r.Subscribe(job.ID(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	var n int
	for range late {
		n++
	}
	if n != 2 {
		t.Fatalf("late subscriber replayed %d events, want 2", n)
	}

	if _, _, err := r.Subscribe("no-such-job", 1); err == nil {
		t.Fatal("unknown job id should error")
	}
}

// TestRunnerSubscribeStoreAnsweredJob: a job answered from the store never
// ran here, so its subscription is an immediately-closed empty channel.
func TestRunnerSubscribeStoreAnsweredJob(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	r := New(store, 1, WithExecutor(countingExecutor(&count)))
	job := Job{Experiment: "fig4", Options: experiments.Options{Quick: true}}
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	r.Wait()
	r.Close()
	store.Close()

	store2, err := Open(dir + "/results.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	r2 := New(store2, 1, WithExecutor(countingExecutor(&count)))
	defer r2.Close()
	if st, err := r2.Submit(job); err != nil || st.Status != StatusDone {
		t.Fatalf("resubmit = %+v, %v; want store-answered done", st, err)
	}
	ch, cancel, err := r2.Subscribe(job.ID(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, open := <-ch; open {
		t.Fatal("store-answered job should yield a closed event channel")
	}
}
