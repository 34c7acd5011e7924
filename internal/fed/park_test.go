package fed

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aergia/internal/experiments"
	"aergia/internal/obs"
	"aergia/internal/rpc"
	"aergia/internal/runner"
)

// The tests in this file run the control at a heartbeat no test outlives, so
// a worker's periodic re-request can never stand in for a missing wake-up:
// an idle fleet that starts a job did so because the control spent a parked
// lease request on it.
const noPolling = 10 * time.Second

// atOnce is how long a parked request may take to turn into a running job.
const atOnce = 250 * time.Millisecond

func seedJob(t *testing.T, seed uint64) runner.Job {
	t.Helper()
	job, err := runner.NewJob("fig4", experiments.Options{Quick: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// gate is an executor that announces each job it starts and holds it until
// released (or canceled).
type gate struct {
	started chan string
	release chan struct{}
}

func newGate() *gate {
	// Buffered past any test's job count, so an over-granting control
	// shows up as a count and not as a blocked executor.
	return &gate{started: make(chan string, 64), release: make(chan struct{})}
}

func (g *gate) exec(ctx context.Context, j runner.Job) (json.RawMessage, error) {
	g.started <- j.ID()
	select {
	case <-g.release:
		return json.RawMessage(`{}`), nil
	case <-ctx.Done():
		return nil, runner.ErrCanceled
	}
}

func (g *gate) awaitStart(t *testing.T, within time.Duration) string {
	t.Helper()
	select {
	case id := <-g.started:
		return id
	case <-time.After(within):
		t.Fatalf("no job started within %s", within)
		return ""
	}
}

func instant(context.Context, runner.Job) (json.RawMessage, error) {
	return json.RawMessage(`{}`), nil
}

// TestParkedFleetStartsJobOnArrival: Join returns with the worker admitted,
// and a job submitted to a drained, idle two-worker fleet is leased at once.
func TestParkedFleetStartsJobOnArrival(t *testing.T) {
	r, c, joinURL := testControlEvery(t, nil, noPolling)
	for _, name := range []string{"w1", "w2"} {
		w, err := Join(WorkerConfig{ControlURL: joinURL, Name: name, Slots: 1, Execute: instant})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	if got := c.Workers(); len(got) != 2 {
		t.Fatalf("workers right after Join = %+v, want both admitted", got)
	}
	// Drain a first batch so both workers have run, reported and parked again.
	first := submitSeeds(t, r, 6)
	waitFor(t, atOnce*4, "the first batch", allDone(r, first))

	job := seedJob(t, 100)
	start := time.Now()
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	waitFor(t, atOnce, "the lone job to be leased", func() bool {
		st, _ := r.Get(job.ID())
		return st.Status == runner.StatusLeased || st.Status == runner.StatusDone
	})
	waitFor(t, atOnce, "the lone job to finish", allDone(r, []runner.Job{job}))
	t.Logf("idle pickup to done: %s", time.Since(start))
}

// TestParkedWorkerTakesOverOnBye: worker A holds a job while idle worker B
// is parked; A leaves, and B receives the requeued job on A's eviction, not
// on its own next heartbeat. The subscriber attached before any of it rides
// through on one stream, and the store ends with one done record.
func TestParkedWorkerTakesOverOnBye(t *testing.T) {
	path := t.TempDir() + "/results.jsonl"
	store, err := runner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	r, c, joinURL := testControlEvery(t, store, noPolling)

	held := newGate()
	a, err := Join(WorkerConfig{ControlURL: joinURL, Name: "a", Slots: 1, Execute: held.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	job := seedJob(t, 1)
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	events, cancel, err := r.Subscribe(job.ID(), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	held.awaitStart(t, atOnce)

	b, err := Join(WorkerConfig{ControlURL: joinURL, Name: "b", Slots: 1,
		Execute: func(_ context.Context, j runner.Job) (json.RawMessage, error) {
			j.Options.Events.Publish(obs.RoundEvent{Round: 1, Accuracy: 0.9})
			return json.RawMessage(`{"by":"b"}`), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Close(); err != nil { // Bye, then A's executor is canceled
		t.Fatal(err)
	}
	waitFor(t, atOnce, "b to finish the requeued job", allDone(r, []runner.Job{job}))
	if st, _ := r.Get(job.ID()); !strings.Contains(st.Worker, ":b") {
		t.Fatalf("job finished by %q, want b", st.Worker)
	}
	var rounds []int
	for ev := range events {
		rounds = append(rounds, ev.Round)
	}
	if len(rounds) != 1 || rounds[0] != 1 {
		t.Fatalf("subscriber saw rounds %v, want b's [1] on the original stream", rounds)
	}
	// A's canceled result lost to the fence; settle before reading the file.
	waitFor(t, atOnce, "a to be gone", func() bool { return len(c.Workers()) == 1 })
	if got := doneRecords(t, path, job.ID()); got != 1 {
		t.Fatalf("%d done records for the job, want exactly 1", got)
	}
}

func doneRecords(t *testing.T, path, id string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec runner.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.ID == id && rec.Status == runner.StatusDone {
			n++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestParkedCreditSpentJobByJob: a four-slot worker parked with all four
// slots receives jobs submitted one at a time, each at once, and the fifth
// and sixth wait in the queue until a slot frees.
func TestParkedCreditSpentJobByJob(t *testing.T) {
	r, c, joinURL := testControlEvery(t, nil, noPolling)
	g := newGate()
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w", Slots: 4, Execute: g.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	var jobs []runner.Job
	for seed := uint64(1); seed <= 6; seed++ {
		job := seedJob(t, seed)
		jobs = append(jobs, job)
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
		if seed <= 4 {
			if got := g.awaitStart(t, atOnce); got != job.ID() {
				t.Fatalf("started %s, want %s", got, job.ID())
			}
		}
	}
	// Submit returned with the queue settled: anything the control was
	// going to over-grant it has granted. Give a stray grant time to land.
	time.Sleep(50 * time.Millisecond)
	if got := w.Active(); got != 4 {
		t.Fatalf("worker runs %d jobs, want its 4 slots full and no more", got)
	}
	if info := c.Workers(); info[0].Leased != 4 || r.LeaseCount() != 4 {
		t.Fatalf("control counts %d leased (runner %d), want 4", info[0].Leased, r.LeaseCount())
	}
	close(g.release)
	waitFor(t, atOnce*4, "all six jobs", allDone(r, jobs))
}

// TestNeverGrantsPastSlots: lease requests that say more than the control's
// own table allows — a heartbeat sent while the first grant was still in
// flight reads exactly like this — grant nothing.
func TestNeverGrantsPastSlots(t *testing.T) {
	r, c, joinURL := testControlEvery(t, nil, noPolling)
	jobs := submitSeeds(t, r, 6)
	g := newGate()
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w", Slots: 2, Execute: g.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g.awaitStart(t, atOnce)
	g.awaitStart(t, atOnce)

	beats := fm().heartbeats.With("w") // process-wide: count from here
	before := beats.Value()
	for i := 0; i < 2; i++ {
		if err := w.send(rpc.HeartbeatPayload{Name: "w", Addr: w.Addr(), Slots: 2, Want: 2}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, atOnce, "both heartbeats to be handled", func() bool { return beats.Value() >= before+2 })
	time.Sleep(50 * time.Millisecond) // a wrong grant would be on the wire now
	if got := w.Active(); got > 2 {
		t.Fatalf("worker runs %d jobs on 2 slots", got)
	}
	if info := c.Workers(); info[0].Leased > info[0].Slots {
		t.Fatalf("control leased %d jobs to %d slots", info[0].Leased, info[0].Slots)
	}
	close(g.release)
	waitFor(t, atOnce*4, "all six jobs", allDone(r, jobs))
}

// TestRequestOvertakingResultIsSpentOnResult: a heartbeat that ticks as a
// job ends can put its lease request on the wire ahead of the result. The
// control must cap that request (the slot still reads taken) and then grant
// when the result, carrying the request again, frees the slot.
func TestRequestOvertakingResultIsSpentOnResult(t *testing.T) {
	r, c, joinURL := testControlEvery(t, nil, noPolling)
	g := newGate()
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w", Slots: 1, Execute: g.exec})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	jobs := submitSeeds(t, r, 2)
	if got := g.awaitStart(t, atOnce); got != jobs[0].ID() {
		t.Fatalf("started %s, want %s", got, jobs[0].ID())
	}

	beats := fm().heartbeats.With("w") // process-wide: count from here
	before := beats.Value()
	if err := w.send(rpc.HeartbeatPayload{Name: "w", Addr: w.Addr(), Slots: 1, Want: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, atOnce, "the early request to be handled", func() bool { return beats.Value() > before })
	if info := c.Workers(); info[0].Leased != 1 || w.Active() != 1 {
		t.Fatalf("control leased %d jobs to 1 slot (worker runs %d)", info[0].Leased, w.Active())
	}

	g.release <- struct{}{} // the first job only
	if got := g.awaitStart(t, atOnce); got != jobs[1].ID() {
		t.Fatalf("started %s, want %s", got, jobs[1].ID())
	}
	close(g.release)
	waitFor(t, atOnce*4, "both jobs", allDone(r, jobs))
}

// TestCrossingResultsKeepEverySlot: a worker's jobs end together on an
// empty queue, so their results cross on the wire and every freed slot
// parks as credit. Each result carries the worker's request; if the control
// read an older request after a newer one, the next round would find a
// slot short, and no heartbeat here would restore it. Two slots is the
// smallest crossing; eight make the window between reading the free slots
// and sending them wide enough to hit in a few rounds.
func TestCrossingResultsKeepEverySlot(t *testing.T) {
	for _, c := range []struct{ slots, rounds int }{{2, 300}, {8, 100}} {
		t.Run(fmt.Sprintf("%d slots", c.slots), func(t *testing.T) {
			r, _, joinURL := testControlEvery(t, nil, noPolling)
			started := make(chan chan struct{}, c.slots)
			w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w", Slots: c.slots,
				Execute: func(ctx context.Context, _ runner.Job) (json.RawMessage, error) {
					release := make(chan struct{})
					started <- release
					select {
					case <-release:
						return json.RawMessage(`{}`), nil
					case <-ctx.Done():
						return nil, runner.ErrCanceled
					}
				}})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			seed := uint64(0)
			for round := 1; round <= c.rounds; round++ {
				var jobs []runner.Job
				for range c.slots {
					seed++
					jobs = append(jobs, seedJob(t, seed))
					if _, err := r.Submit(jobs[len(jobs)-1]); err != nil {
						t.Fatal(err)
					}
				}
				var releases []chan struct{}
				for range jobs {
					select {
					case release := <-started:
						releases = append(releases, release)
					case <-time.After(atOnce):
						t.Fatalf("round %d of %d: %d jobs started on %d free slots", round, c.rounds, len(releases), c.slots)
					}
				}
				for _, release := range releases {
					close(release)
				}
				waitFor(t, atOnce, "the round's jobs", allDone(r, jobs))
			}
		})
	}
}

// TestLostCreditRestoredByHeartbeat: the fallback the heartbeat is still for.
// A worker evicted on the control's side loses its parked request with its
// registration; its next heartbeat re-admits it, and the request the beat
// carries parks again.
func TestLostCreditRestoredByHeartbeat(t *testing.T) {
	r, c, joinURL := testControlEvery(t, nil, noPolling)
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w", Slots: 1, Execute: instant})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	c.mu.Lock()
	ws := c.workers[w.ID()]
	delete(c.workers, w.ID())
	c.mu.Unlock()
	if ws == nil {
		t.Fatal("worker not registered after Join")
	}
	c.evict(ws, "test")

	job := seedJob(t, 1)
	if _, err := r.Submit(job); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if st, _ := r.Get(job.ID()); st.Status != runner.StatusQueued {
		t.Fatalf("job is %s with no worker registered, want queued", st.Status)
	}
	if err := w.beat(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, atOnce, "the re-admitted worker to run the job", allDone(r, []runner.Job{job}))

	// And the restored request parks like the first one did.
	again := seedJob(t, 2)
	if _, err := r.Submit(again); err != nil {
		t.Fatal(err)
	}
	waitFor(t, atOnce, "the parked request to be spent", allDone(r, []runner.Job{again}))
}

// TestEnqueueRacingEmptyLease: each job is submitted the instant the one
// before reads done, which is when the worker's next request is on its way
// to an empty queue — the enqueue lands before, during or after that Lease.
// Whichever way, the job must not be left queued behind a parked request.
func TestEnqueueRacingEmptyLease(t *testing.T) {
	r, _, joinURL := testControlEvery(t, nil, noPolling)
	var ran atomic.Int64
	w, err := Join(WorkerConfig{ControlURL: joinURL, Name: "w", Slots: 1,
		Execute: func(context.Context, runner.Job) (json.RawMessage, error) {
			ran.Add(1)
			return json.RawMessage(`{}`), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const n = 150
	deadline := time.Now().Add(noPolling / 2)
	for seed := uint64(1); seed <= n; seed++ {
		job := seedJob(t, seed)
		if _, err := r.Submit(job); err != nil {
			t.Fatal(err)
		}
		for {
			if st, _ := r.Get(job.ID()); st.Status == runner.StatusDone {
				break
			}
			if time.Now().After(deadline) {
				st, _ := r.Get(job.ID())
				t.Fatalf("job %d of %d stranded %s behind a parked request", seed, n, st.Status)
			}
			runtime.Gosched()
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("executed %d jobs, want %d", got, n)
	}
}

// TestControlsStartedTogetherAssignDistinctIDs: two controls started back to
// back (every test binary does it) must not hand out the same worker IDs.
func TestControlsStartedTogetherAssignDistinctIDs(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 2; i++ {
		r := runner.New(nil, -1)
		c, err := NewControl(r, ControlConfig{Heartbeat: noPolling})
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			rec := httptest.NewRecorder()
			c.HandleJoin(rec, httptest.NewRequest(http.MethodPost, "/workers/join", nil))
			var jr JoinResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &jr); err != nil {
				t.Fatal(err)
			}
			if jr.ID <= 0 {
				t.Fatalf("control %d assigned ID %d, want positive", i, jr.ID)
			}
			if prev, dup := seen[jr.ID]; dup {
				t.Fatalf("control %d assigned ID %d, already assigned by control %d", i, jr.ID, prev)
			}
			seen[jr.ID] = i
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
}
