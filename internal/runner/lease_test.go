package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aergia/internal/experiments"
	"aergia/internal/obs"
)

func mustJob(t *testing.T, experiment string, opt experiments.Options) Job {
	t.Helper()
	job, err := NewJob(experiment, opt)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// TestRunnerQueueLimit pins admission control: with WithQueueLimit(n) the
// n+1-th waiting job is refused with ErrQueueFull and nothing about it is
// recorded, so an identical resubmission later succeeds cleanly.
func TestRunnerQueueLimit(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		started <- struct{}{}
		<-release
		return json.RawMessage(`{}`), nil
	}
	r := New(nil, 1, WithExecutor(exec), WithQueueLimit(2))
	defer r.Close()

	running := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1})
	if _, err := r.Submit(running); err != nil {
		t.Fatal(err)
	}
	<-started // slot occupied; the queue is empty again
	q1 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2})
	q2 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 3})
	for _, job := range []Job{q1, q2} {
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	over := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 4})
	if _, err := r.Submit(over); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	// The refused job left no trace: it is unknown, not canceled/failed.
	if _, ok := r.Get(over.ID()); ok {
		t.Fatal("refused job has a state entry")
	}
	// Duplicates of queued work are answered as-is, not re-admitted.
	if st, err := r.Submit(q1); err != nil || st.Status != StatusQueued {
		t.Fatalf("duplicate of queued job = %+v, %v", st, err)
	}
	close(release)
	r.Wait()
	// With the queue drained the refused job is admitted on retry.
	if _, err := r.Submit(over); err != nil {
		t.Fatalf("post-drain resubmit err = %v", err)
	}
	r.Wait()
}

// TestRunnerCancelQueuedJob: canceling a job that never started finalizes
// it immediately — terminal canceled state, closed stream, persisted
// canceled record — and a resubmission re-runs it like a failed job.
func TestRunnerCancelQueuedJob(t *testing.T) {
	store, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	var count atomic.Int64
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		count.Add(1)
		started <- struct{}{}
		<-release
		return json.RawMessage(`{}`), nil
	}
	r := New(store, 1, WithExecutor(exec))
	defer r.Close()

	blocker := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1})
	victim := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2})
	if _, err := r.Submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := r.Submit(victim); err != nil {
		t.Fatal(err)
	}
	ch, cancelSub, err := r.Subscribe(victim.ID(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()

	st, owner, err := r.Cancel(victim.ID())
	if err != nil || owner != "" || st.Status != StatusCanceled {
		t.Fatalf("cancel queued = %+v, owner %q, err %v", st, owner, err)
	}
	if _, open := <-ch; open {
		t.Fatal("canceled queued job should close its event stream")
	}
	if rec, ok := store.Meta(victim.ID()); !ok || rec.Status != StatusCanceled {
		t.Fatalf("store record = %+v, want canceled", rec)
	}
	// Terminal: a second cancel reports ErrJobFinished.
	if _, _, err := r.Cancel(victim.ID()); !errors.Is(err, ErrJobFinished) {
		t.Fatalf("second cancel err = %v, want ErrJobFinished", err)
	}
	if _, _, err := r.Cancel("no-such-job"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown cancel err = %v, want ErrUnknownJob", err)
	}
	// Canceled jobs resubmit like failed ones.
	if st, err := r.Submit(victim); err != nil || st.Status != StatusQueued {
		t.Fatalf("resubmit after cancel = %+v, %v", st, err)
	}
	close(release)
	r.Wait()
	if got := count.Load(); got != 2 {
		t.Fatalf("executed %d jobs, want 2 (blocker + resubmitted victim)", got)
	}
}

// TestRunnerCancelRunningJob: canceling a running job cancels its context;
// an executor that returns on ctx.Done finalizes the job as canceled, not
// failed.
func TestRunnerCancelRunningJob(t *testing.T) {
	store, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	started := make(chan struct{})
	exec := func(ctx context.Context, j Job) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ErrCanceled
	}
	r := New(store, 1, WithExecutor(exec))
	defer r.Close()

	job := mustJob(t, "fig4", experiments.Options{Quick: true})
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	<-started
	if st, owner, err := r.Cancel(job.ID()); err != nil || owner != "" || st.Status != StatusRunning {
		t.Fatalf("cancel running = %+v, owner %q, err %v", st, owner, err)
	}
	r.Wait()
	if st, _ := r.Get(job.ID()); st.Status != StatusCanceled {
		t.Fatalf("state after cancel = %+v, want canceled", st)
	}
	if rec, ok := store.Meta(job.ID()); !ok || rec.Status != StatusCanceled {
		t.Fatalf("store record = %+v, want canceled", rec)
	}
}

// TestExecuteJobAbandonsOnCancel: the real executor returns ErrCanceled
// promptly on a canceled context even though the underlying experiment has
// no cancellation points.
func TestExecuteJobAbandonsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	job := mustJob(t, "fig4", experiments.Options{Quick: true})
	start := time.Now()
	if _, err := ExecuteJob(ctx, job); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("abandonment took %v, want prompt return", elapsed)
	}
}

// TestRunnerLeaseLifecycle drives the remote path end to end: grant (which
// the store does not record), completion with the worker's record, and the
// fencing that drops a stale duplicate completion.
func TestRunnerLeaseLifecycle(t *testing.T) {
	store, err := Open(tempStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Negative slots: a pure control plane that never executes locally.
	r := New(store, -1, WithExecutor(func(context.Context, Job) (json.RawMessage, error) {
		t.Error("control plane executed a job locally")
		return nil, nil
	}))
	defer r.Close()
	if r.Slots() != 0 {
		t.Fatalf("slots = %d, want 0", r.Slots())
	}

	j1 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1})
	j2 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2})
	for _, job := range []Job{j1, j2} {
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	leases := r.Lease("w1", 10)
	if len(leases) != 2 || leases[0].Seq == leases[1].Seq {
		t.Fatalf("leases = %+v, want 2 with distinct seqs", leases)
	}
	if r.LeaseCount() != 2 {
		t.Fatalf("lease count = %d, want 2", r.LeaseCount())
	}
	if st, _ := r.Get(j1.ID()); st.Status != StatusLeased || st.Worker != "w1" {
		t.Fatalf("leased state = %+v", st)
	}
	// A lease lives in memory only: the store holds no record of a leased job.
	if rec, ok := store.Meta(j1.ID()); ok {
		t.Fatalf("store holds %+v for a leased job, want nothing", rec)
	}
	// A leased duplicate submission is answered as-is, not re-enqueued.
	if st, err := r.Submit(j1); err != nil || st.Status != StatusLeased {
		t.Fatalf("duplicate of leased job = %+v, %v", st, err)
	}
	// No queue left: another worker gets nothing.
	if extra := r.Lease("w2", 10); len(extra) != 0 {
		t.Fatalf("second lease got %+v, want nothing", extra)
	}

	l1 := leases[0]
	if err := r.Complete(l1.Job.ID(), l1.Seq, Record{
		Status: StatusDone, Elapsed: 5 * time.Millisecond,
		Result: json.RawMessage(`{"x":1}`),
	}); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Get(l1.Job.ID()); st.Status != StatusDone || st.Worker != "w1" {
		t.Fatalf("completed state = %+v", st)
	}
	if rec, ok := store.Get(l1.Job.ID()); !ok || rec.Status != StatusDone ||
		rec.Worker != "w1" || string(rec.Result) != `{"x":1}` {
		t.Fatalf("completed record = %+v", rec)
	}
	// The duplicate (same lease, retransmitted result) is fenced off.
	if err := r.Complete(l1.Job.ID(), l1.Seq, Record{Status: StatusDone}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("duplicate complete err = %v, want ErrStaleLease", err)
	}
	// A failed remote outcome finalizes as failed.
	l2 := leases[1]
	if err := r.Complete(l2.Job.ID(), l2.Seq, Record{Status: StatusFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Get(l2.Job.ID()); st.Status != StatusFailed || st.Error != "boom" {
		t.Fatalf("failed remote state = %+v", st)
	}
	r.Wait() // no leases outstanding: returns immediately
}

// TestRunnerReadySignalsEmptyToNonEmpty pins the wake-up the federation
// control parks lease requests on: one coalesced signal when a job enters an
// empty queue — by Submit or by Requeue — and none for a job that joins a
// queue somebody is already draining.
func TestRunnerReadySignalsEmptyToNonEmpty(t *testing.T) {
	r := New(nil, -1)
	defer r.Close()
	signaled := func() bool {
		select {
		case <-r.Ready():
			return true
		default:
			return false
		}
	}
	if signaled() {
		t.Fatal("signal before any job")
	}
	j1 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1})
	j2 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2})
	for _, job := range []Job{j1, j2} {
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	if !signaled() {
		t.Fatal("no signal for a job entering an empty queue")
	}
	if signaled() {
		t.Fatal("second signal for a job joining a non-empty queue")
	}
	// A Lease that comes up short saw the queue empty: the next arrival,
	// here the lost owner's leases coming back, signals again.
	if got := r.Lease("w", 3); len(got) != 2 {
		t.Fatalf("leased %d, want 2", len(got))
	}
	if signaled() {
		t.Fatal("signal for draining the queue")
	}
	if requeued, _ := r.Requeue("w"); requeued != 2 {
		t.Fatalf("requeued %d, want 2", requeued)
	}
	if !signaled() || signaled() {
		t.Fatal("want exactly one signal for two leases requeued onto an empty queue")
	}
}

// TestRunnerRequeueFencesDeadWorker: requeuing a lost worker's leases puts
// the jobs back at the head of the queue with their streams intact, and
// the dead worker's late result is rejected while the new lease's result
// lands.
func TestRunnerRequeueFencesDeadWorker(t *testing.T) {
	r := New(nil, -1)
	defer r.Close()
	job := mustJob(t, "fig4", experiments.Options{Quick: true})
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	ch, cancelSub, err := r.Subscribe(job.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelSub()

	old := r.Lease("w1", 1)
	if len(old) != 1 {
		t.Fatalf("leases = %+v", old)
	}
	requeued, canceled := r.Requeue("w1")
	if requeued != 1 || canceled != 0 {
		t.Fatalf("requeue = %d, %d; want 1, 0", requeued, canceled)
	}
	if st, _ := r.Get(job.ID()); st.Status != StatusQueued || st.Worker != "" {
		t.Fatalf("requeued state = %+v", st)
	}
	// The dead worker's result arrives late: fenced.
	if err := r.Complete(job.ID(), old[0].Seq, Record{Status: StatusDone}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale complete err = %v, want ErrStaleLease", err)
	}
	// The survivor leases it under a fresh seq and finishes it; the
	// subscriber attached before the first lease rides through.
	fresh := r.Lease("w2", 1)
	if len(fresh) != 1 || fresh[0].Seq == old[0].Seq {
		t.Fatalf("fresh lease = %+v (old seq %d)", fresh, old[0].Seq)
	}
	r.PublishEvent(job.ID(), obs.RoundEvent{Round: 7, Accuracy: 0.9})
	if err := r.Complete(job.ID(), fresh[0].Seq, Record{Status: StatusDone, Result: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	var rounds []int
	for ev := range ch {
		rounds = append(rounds, ev.Round)
	}
	if len(rounds) != 1 || rounds[0] != 7 {
		t.Fatalf("subscriber saw rounds %v, want [7]", rounds)
	}
	if st, _ := r.Get(job.ID()); st.Status != StatusDone || st.Worker != "w2" {
		t.Fatalf("final state = %+v", st)
	}
}

// TestRunnerCancelLeasedJob covers both cancel outcomes for remote jobs:
// the owner acknowledges with a canceled result, or the owner dies first
// and Requeue finalizes the cancel instead of resurrecting the job.
func TestRunnerCancelLeasedJob(t *testing.T) {
	r := New(nil, -1)
	defer r.Close()
	j1 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 1})
	j2 := mustJob(t, "fig4", experiments.Options{Quick: true, Seed: 2})
	for _, job := range []Job{j1, j2} {
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
	}
	leases := r.Lease("w1", 2)
	if len(leases) != 2 {
		t.Fatalf("leases = %+v", leases)
	}
	byID := map[string]Leased{}
	for _, l := range leases {
		byID[l.Job.ID()] = l
	}

	// Path 1: cancel propagates, the worker acknowledges.
	if st, owner, err := r.Cancel(j1.ID()); err != nil || owner != "w1" || st.Status != StatusLeased {
		t.Fatalf("cancel leased = %+v, owner %q, err %v", st, owner, err)
	}
	if err := r.Complete(j1.ID(), byID[j1.ID()].Seq, Record{Status: StatusCanceled, Error: "canceled"}); err != nil {
		t.Fatal(err)
	}
	if st, _ := r.Get(j1.ID()); st.Status != StatusCanceled {
		t.Fatalf("acknowledged cancel state = %+v", st)
	}

	// Path 2: cancel is pending when the worker dies; the job must not
	// come back to the queue.
	if _, owner, err := r.Cancel(j2.ID()); err != nil || owner != "w1" {
		t.Fatalf("cancel leased owner = %q, err %v", owner, err)
	}
	requeued, canceled := r.Requeue("w1")
	if requeued != 0 || canceled != 1 {
		t.Fatalf("requeue = %d, %d; want 0, 1", requeued, canceled)
	}
	if st, _ := r.Get(j2.ID()); st.Status != StatusCanceled {
		t.Fatalf("orphaned cancel state = %+v", st)
	}
	r.Wait()
}

// TestRunnerFailedRetrySubscriberSemantics pins the contract between
// failure, retry, and subscribers (the terminal-status/stream-close
// atomicity): a subscriber of the failed attempt sees that attempt's
// events and a closed channel — by which point the job state already
// reads terminal — and a subscriber attached after the retry follows the
// fresh attempt's stream.
func TestRunnerFailedRetrySubscriberSemantics(t *testing.T) {
	var attempts atomic.Int64
	exec := func(_ context.Context, j Job) (json.RawMessage, error) {
		if attempts.Add(1) == 1 {
			j.Options.Events.Publish(obs.RoundEvent{Round: 1})
			return nil, fmt.Errorf("transient failure")
		}
		j.Options.Events.Publish(obs.RoundEvent{Round: 2})
		return json.RawMessage(`{}`), nil
	}
	r := New(nil, 1, WithExecutor(exec))
	defer r.Close()
	job := mustJob(t, "fig4", experiments.Options{Quick: true})
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	first, cancel1, err := r.Subscribe(job.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel1()
	var rounds []int
	for ev := range first {
		rounds = append(rounds, ev.Round)
	}
	// The channel closing is the completion signal: the state must already
	// be terminal, never still "running" (status update and stream close
	// are one critical section).
	if st, _ := r.Get(job.ID()); st.Status != StatusFailed {
		t.Fatalf("state at stream close = %+v, want failed", st)
	}
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("first subscriber saw %v, want [1]", rounds)
	}

	// Retry: a fresh stream carries the second attempt.
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	second, cancel2, err := r.Subscribe(job.ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	rounds = nil
	for ev := range second {
		rounds = append(rounds, ev.Round)
	}
	if len(rounds) != 1 || rounds[0] != 2 {
		t.Fatalf("retry subscriber saw %v, want [2]", rounds)
	}
	if st, _ := r.Get(job.ID()); st.Status != StatusDone {
		t.Fatalf("final state = %+v", st)
	}
}

// TestRunnerQueueReleasesPoppedJobs pins that the queue keeps no popped job
// reachable: a job leaves through the worker, Lease or Cancel and its slot
// in the queue's ring is cleared, and a drained queue keeps at most a small
// ring, with no job in it, and no ring at all once a burst drains. Popping
// by reslicing alone kept every job of a burst, and its options, alive in
// the array append had grown.
func TestRunnerQueueReleasesPoppedJobs(t *testing.T) {
	check := func(r *Runner, step string) {
		t.Helper()
		r.mu.Lock()
		defer r.mu.Unlock()
		q := &r.queue
		for x, st := range q.ring {
			if queued := (x-q.head)&(len(q.ring)-1) < q.n; queued != (st != nil) {
				t.Fatalf("after %s slot %d of the queue's ring holds %v (head %d, %d queued)", step, x, st, q.head, q.n)
			}
		}
	}
	drained := func(r *Runner, step string) {
		t.Helper()
		r.mu.Lock()
		defer r.mu.Unlock()
		q := &r.queue
		if q.n != 0 || len(q.ring) > 64 || slices.ContainsFunc(q.ring, func(st *liveJob) bool { return st != nil }) {
			t.Fatalf("after %s the drained queue holds %d jobs in a ring of %d slots: %v", step, q.n, len(q.ring), q.ring)
		}
	}
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = mustJob(t, "fig4", experiments.Options{Quick: true, Seed: uint64(i + 1)})
	}

	// The control plane: Lease, Cancel, and requeueFront through Requeue.
	r := New(nil, -1)
	defer r.Close()
	if _, err := r.SubmitAll(jobs[:4]); err != nil {
		t.Fatal(err)
	}
	if got := r.Lease("w1", 2); len(got) != 2 {
		t.Fatalf("leased %d, want 2", len(got))
	}
	check(r, "Lease")
	if _, _, err := r.Cancel(jobs[2].ID()); err != nil {
		t.Fatal(err)
	}
	check(r, "Cancel")
	if requeued, _ := r.Requeue("w1"); requeued != 2 {
		t.Fatalf("requeued %d, want 2", requeued)
	}
	check(r, "requeueFront")
	if got := r.Lease("w2", 1); len(got) != 1 {
		t.Fatalf("leased %d, want 1", len(got))
	}
	check(r, "Lease after requeueFront")
	if _, _, err := r.Cancel(jobs[3].ID()); err != nil {
		t.Fatal(err)
	}
	check(r, "Cancel after requeueFront")
	if got := r.Lease("w2", 10); len(got) != 1 {
		t.Fatalf("leased %d, want 1", len(got))
	}
	drained(r, "Lease")

	// A burst of more than 64 jobs grows the ring past what an emptied
	// queue keeps, so draining it lets go of the ring.
	burst := make([]Job, 100)
	for i := range burst {
		burst[i] = mustJob(t, "fig4", experiments.Options{Quick: true, Seed: uint64(100 + i)})
	}
	if _, err := r.SubmitAll(burst); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Cancel(burst[50].ID()); err != nil {
		t.Fatal(err)
	}
	check(r, "Cancel in a burst")
	if got := r.Lease("w3", len(burst)); len(got) != len(burst)-1 {
		t.Fatalf("leased %d, want %d", len(got), len(burst)-1)
	}
	drained(r, "a burst's Lease")
	r.mu.Lock()
	if r.queue.ring != nil {
		t.Errorf("the drained burst keeps a ring of %d slots", len(r.queue.ring))
	}
	r.mu.Unlock()

	// The local worker: each job blocks until released, so the queue is
	// observed between pops.
	started := make(chan struct{})
	release := make(chan struct{})
	local := New(nil, 1, WithExecutor(func(context.Context, Job) (json.RawMessage, error) {
		started <- struct{}{}
		<-release
		return json.RawMessage(`{}`), nil
	}))
	defer local.Close()
	if _, err := local.Submit(jobs[4]); err != nil {
		t.Fatal(err)
	}
	<-started
	drained(local, "the worker's pop")
	if _, err := local.SubmitAll([]Job{jobs[5], jobs[0], jobs[1]}); err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	<-started
	check(local, "the worker's pop")
	for range 2 {
		release <- struct{}{}
		<-started
	}
	release <- struct{}{}
	local.Wait()
	drained(local, "the worker drained it")
}

// TestRunnerRequeueGoesAheadOfTheQueue: a lost worker's K leases go back
// to the front of a deep queue, ahead of every job that waited, in the
// order they were leased, and the waiting jobs keep their order. The queue grows between the leases and
// the requeue, so the requeued jobs wrap round the front of its ring.
func TestRunnerRequeueGoesAheadOfTheQueue(t *testing.T) {
	const n, k = 200, 10
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = mustJob(t, "fig4", experiments.Options{Quick: true, Seed: uint64(i + 1)})
	}
	r := New(nil, -1)
	defer r.Close()
	if _, err := r.SubmitAll(jobs[:n/2]); err != nil {
		t.Fatal(err)
	}
	if got := r.Lease("w1", k); len(got) != k {
		t.Fatalf("leased %d, want %d", len(got), k)
	}
	if _, err := r.SubmitAll(jobs[n/2:]); err != nil {
		t.Fatal(err)
	}
	if requeued, canceled := r.Requeue("w1"); requeued != k || canceled != 0 {
		t.Fatalf("Requeue = %d requeued, %d canceled; want %d, 0", requeued, canceled, k)
	}
	r.mu.Lock()
	if r.queue.n != n || r.queue.head+r.queue.n <= len(r.queue.ring) {
		t.Errorf("the queue holds %d jobs from ring index %d of %d; want %d wrapping round", r.queue.n, r.queue.head, len(r.queue.ring), n)
	}
	r.mu.Unlock()
	got := r.Lease("w2", 2*n)
	if len(got) != n {
		t.Fatalf("leased %d after the requeue, want %d", len(got), n)
	}
	for i, l := range got[:k] {
		if want := jobs[i].ID(); l.Job.ID() != want {
			t.Errorf("requeued job %d of the queue is %s, want %s: the lost worker's leases go back in lease order", i, l.Job.ID(), want)
		}
	}
	for i, l := range got[k:] {
		if want := jobs[k+i].ID(); l.Job.ID() != want {
			t.Fatalf("job %d behind the requeued ones is %s, want %s", k+i, l.Job.ID(), want)
		}
	}
}

// TestRunnerCancelsLocalJobThroughItsLease: a local slot runs its job on a
// lease of the runner's own table, so canceling the running job cancels
// that lease's context and the job lands canceled as a lease's result. The
// lease is no remote owner's: LeaseCount leaves it out, Complete finds it
// stale, and the store gets the one terminal record with no worker and no
// lease record.
func TestRunnerCancelsLocalJobThroughItsLease(t *testing.T) {
	path := tempStore(t)
	store, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	started := make(chan struct{})
	exec := func(ctx context.Context, j Job) (json.RawMessage, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err() // not ErrCanceled: the canceled context decides
	}
	r := New(store, 1, WithExecutor(exec))
	defer r.Close()
	job := mustJob(t, "fig4", experiments.Options{Quick: true})
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	<-started
	r.mu.Lock()
	st := r.jobs[job.ID()]
	local, owner, seq := st.cancel != nil, st.worker, st.seq
	r.mu.Unlock()
	if !local || owner != "" {
		t.Fatalf("running local job's lease is held by %q, local %v; want a local one", owner, local)
	}
	if n := r.LeaseCount(); n != 0 {
		t.Fatalf("LeaseCount = %d with only a local job running, want 0", n)
	}
	if st, _ := r.Get(job.ID()); st.Status != StatusRunning || st.Worker != "" {
		t.Fatalf("running local job = %+v, want running with no worker", st)
	}
	if err := r.Complete(job.ID(), seq, Record{Status: StatusDone}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("remote Complete of a local job err = %v, want ErrStaleLease", err)
	}
	if st, owner, err := r.Cancel(job.ID()); err != nil || owner != "" || st.Status != StatusRunning {
		t.Fatalf("cancel running = %+v, owner %q, err %v", st, owner, err)
	}
	r.Wait()
	r.mu.Lock()
	live := len(r.jobs)
	r.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d live jobs after the canceled job landed", live)
	}
	if st, _ := r.Get(job.ID()); st.Status != StatusCanceled || st.Worker != "" {
		t.Fatalf("state after cancel = %+v, want canceled with no worker", st)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"status":"canceled"`) || strings.Contains(lines[0], `"worker"`) {
		t.Fatalf("store holds %q, want the one canceled record with no worker", lines)
	}
}

// TestRunnerQueuedJobsHoldNoStream: a job has an event stream only once
// something subscribes to it or publishes into it, not for waiting in the
// queue, and a lease and a requeue keep the stream it has.
func TestRunnerQueuedJobsHoldNoStream(t *testing.T) {
	r := New(nil, -1)
	defer r.Close()
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = mustJob(t, "fig4", experiments.Options{Quick: true, Seed: uint64(i + 1)})
	}
	if _, err := r.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	streams := func() int {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.streams)
	}
	if n := streams(); n != 0 {
		t.Fatalf("%d queued jobs hold %d streams, want none", len(jobs), n)
	}
	ch, cancel, err := r.Subscribe(jobs[0].ID(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if got := r.Lease("w1", 2); len(got) != 2 {
		t.Fatalf("leased %d, want 2", len(got))
	}
	r.PublishEvent(jobs[1].ID(), obs.RoundEvent{Round: 3})
	if n := streams(); n != 2 {
		t.Fatalf("%d streams after a subscribe and a publish, want 2", n)
	}
	if requeued, _ := r.Requeue("w1"); requeued != 2 {
		t.Fatalf("requeued %d, want 2", requeued)
	}
	r.PublishEvent(jobs[0].ID(), obs.RoundEvent{Round: 1})
	for _, l := range r.Lease("w2", 3) {
		if err := r.Complete(l.Job.ID(), l.Seq, Record{Status: StatusDone}); err != nil {
			t.Fatal(err)
		}
	}
	var rounds []int
	for ev := range ch {
		rounds = append(rounds, ev.Round)
	}
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("subscriber saw rounds %v across a requeue, want [1]", rounds)
	}
	// A finished job that published nothing gets no stream from a late
	// publish; a queued one gets one from a subscriber.
	r.PublishEvent(jobs[2].ID(), obs.RoundEvent{Round: 9})
	_, cancel2, err := r.Subscribe(jobs[3].ID(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	if n := streams(); n != 3 {
		t.Fatalf("%d streams, want 3: the two finished jobs that published and the queued one subscribed to", n)
	}
}
