package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aergia/internal/experiments"
	"aergia/internal/fed"
	"aergia/internal/runner"
)

type jobsResponse struct {
	Jobs []runner.JobState `json:"jobs"`
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls the list endpoint until want jobs are done or the
// deadline passes.
func waitDone(t *testing.T, base string, want int) []runner.JobState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var list jobsResponse
		getJSON(t, base+"/jobs?status=done", &list)
		if len(list.Jobs) >= want {
			return list.Jobs
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d done jobs", want)
	return nil
}

// newTestServer starts a daemon instance; the returned stop function
// releases the store's file lock so a successor can open the same path
// (it is also registered as cleanup and safe to call twice).
// counting stubs the job executor with one that counts executions.
func counting(count *atomic.Int64) runner.Option {
	return runner.WithExecutor(func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		count.Add(1)
		return json.RawMessage(fmt.Sprintf(`{"job":%q}`, j.ID())), nil
	})
}

func newTestServer(t *testing.T, storePath string, opts ...runner.Option) (*httptest.Server, *runner.Store, func()) {
	t.Helper()
	st, err := runner.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	r := runner.New(st, 4, opts...)
	ctrl, err := fed.NewControl(r, fed.ControlConfig{Heartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(r, st, ctrl, false))
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ts.Close()
			if err := ctrl.Close(); err != nil {
				t.Errorf("control close: %v", err)
			}
			r.Close()
			st.Close()
		})
	}
	t.Cleanup(stop)
	return ts, st, stop
}

// TestDaemonSweepEndToEnd is the acceptance path: a sweep of four quick
// jobs is accepted, runs concurrently, and every persisted result is
// byte-identical to a direct in-process run with the same options.
func TestDaemonSweepEndToEnd(t *testing.T) {
	ts, st, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"))

	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}

	resp, body := postJSON(t, ts.URL+"/jobs",
		`{"sweep":{"experiments":["fig4","table1","profiler","ablation-freeze"],"seeds":[5],"quick":[true]}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var submitted jobsResponse
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if len(submitted.Jobs) != 4 {
		t.Fatalf("submitted %d jobs, want 4", len(submitted.Jobs))
	}

	waitDone(t, ts.URL, 4)

	for _, sub := range submitted.Jobs {
		var st runner.JobState
		if code := getJSON(t, ts.URL+"/jobs/"+sub.ID, &st); code != http.StatusOK {
			t.Fatalf("get %s = %d", sub.ID, code)
		}
		if st.Status != runner.StatusDone || len(st.Result) == 0 {
			t.Fatalf("job %s = %+v", sub.ID, st)
		}
		direct, err := experiments.Run(st.Experiment, st.Options)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if string(st.Result) != string(want) {
			t.Fatalf("job %s result diverged from direct run:\ndaemon: %s\ndirect: %s",
				sub.ID, st.Result, want)
		}
	}
	if st.Len() != 4 {
		t.Fatalf("store has %d records, want 4", st.Len())
	}
}

// TestDaemonCodecJobRoundTrip pins the codec option through the service
// path: a submitted job carrying a codec normalizes, runs, and comes back
// with the codec in its options and in the persisted canonical record —
// byte-identical to a direct in-process run — while an unknown codec is a
// loud 400 at submission time.
func TestDaemonCodecJobRoundTrip(t *testing.T) {
	ts, _, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"))

	resp, body := postJSON(t, ts.URL+"/jobs",
		`{"experiment":"table1","options":{"quick":true,"seed":3,"codec":"q8"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var submitted jobsResponse
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if len(submitted.Jobs) != 1 || submitted.Jobs[0].Options.Codec != "q8" {
		t.Fatalf("submitted jobs = %+v, want one q8 job", submitted.Jobs)
	}
	waitDone(t, ts.URL, 1)

	var got runner.JobState
	if code := getJSON(t, ts.URL+"/jobs/"+submitted.Jobs[0].ID, &got); code != http.StatusOK {
		t.Fatalf("get = %d", code)
	}
	if got.Status != runner.StatusDone || got.Options.Codec != "q8" {
		t.Fatalf("fetched job = %+v", got)
	}
	if !strings.Contains(string(got.Result), `"codec":"q8"`) {
		t.Fatalf("persisted record lost the codec:\n%s", got.Result)
	}
	direct, err := experiments.Run(got.Experiment, got.Options)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Result) != string(want) {
		t.Fatalf("daemon result diverged from direct run:\ndaemon: %s\ndirect: %s", got.Result, want)
	}

	if resp, _ := postJSON(t, ts.URL+"/jobs",
		`{"experiment":"table1","options":{"quick":true,"codec":"gzip"}}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown codec = %d, want 400", resp.StatusCode)
	}
}

// TestDaemonRestartResumesSweep restarts the daemon on the same store
// mid-sweep; resubmitting the full sweep only computes the missing half.
func TestDaemonRestartResumesSweep(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	sweep := `{"sweep":{"experiments":["fig6","fig7"],"seeds":[1,2],"quick":[true]}}`
	half := `{"sweep":{"experiments":["fig6"],"seeds":[1,2],"quick":[true]}}`

	// First life: only half the grid completes before the "crash".
	var firstCount atomic.Int64
	ts1, _, stop1 := newTestServer(t, storePath, counting(&firstCount))
	if resp, body := postJSON(t, ts1.URL+"/jobs", half); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, body)
	}
	done := waitDone(t, ts1.URL, 2)
	firstID := done[0].ID
	stop1()

	// Second life: same store, full sweep.
	var secondCount atomic.Int64
	ts2, st2, _ := newTestServer(t, storePath, counting(&secondCount))
	if st2.Len() != 2 {
		t.Fatalf("restarted store has %d records, want 2", st2.Len())
	}
	resp, body := postJSON(t, ts2.URL+"/jobs", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d: %s", resp.StatusCode, body)
	}
	var submitted jobsResponse
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	waitDone(t, ts2.URL, 4)
	if got := secondCount.Load(); got != 2 {
		t.Fatalf("restart recomputed %d jobs, want only the missing 2", got)
	}
	// A job from the first life is still fetchable, result included.
	var rec runner.JobState
	if code := getJSON(t, ts2.URL+"/jobs/"+firstID, &rec); code != http.StatusOK {
		t.Fatalf("get resumed job = %d", code)
	}
	if rec.Status != runner.StatusDone || len(rec.Result) == 0 {
		t.Fatalf("resumed job = %+v", rec)
	}
}

// TestDaemonServesStoreOnlyJobs covers fetching a job that completed in a
// previous daemon life and was never resubmitted.
func TestDaemonServesStoreOnlyJobs(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	job, err := runner.NewJob("fig4", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := runner.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	err = st.Append(runner.Record{
		ID: job.ID(), Experiment: job.Experiment, Options: job.Options,
		Status: runner.StatusDone, Elapsed: 1, Result: json.RawMessage(`{"x":1}`),
	})
	st.Close()
	if err != nil {
		t.Fatal(err)
	}

	ts, _, _ := newTestServer(t, storePath)
	var got runner.JobState
	if code := getJSON(t, ts.URL+"/jobs/"+job.ID(), &got); code != http.StatusOK {
		t.Fatalf("get = %d", code)
	}
	if got.Status != runner.StatusDone || string(got.Result) != `{"x":1}` {
		t.Fatalf("store-only job = %+v", got)
	}
}

// TestDaemonServesOldParallelRecords: a store written while "parallel" was a
// backend of its own (the line below is what the parent commit's `aergia
// -sweep` wrote) still opens, still answers under the ID it was stored
// with, and a client that resubmits the old body lands on the serial twin's
// job, which the same store then holds too.
func TestDaemonServesOldParallelRecords(t *testing.T) {
	const oldID = "table1-0e104c718a98470fe66a67cb"
	const oldLine = `{"id":"` + oldID + `","experiment":"table1","options":{"quick":true,"seed":1,"backend":"parallel","workers":4},"status":"done","elapsed_ns":61499,"result":{"experiment":"table1","options":{"quick":true,"seed":1,"backend":"parallel","workers":4},"data":["strategy"]}}` + "\n"
	storePath := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(storePath, []byte(oldLine), 0o644); err != nil {
		t.Fatal(err)
	}
	var count atomic.Int64
	ts, st, stop := newTestServer(t, storePath, counting(&count))
	var got runner.JobState
	if code := getJSON(t, ts.URL+"/jobs/"+oldID, &got); code != http.StatusOK {
		t.Fatalf("get old record = %d", code)
	}
	if got.Status != runner.StatusDone || got.Options.Backend != "parallel" || got.Options.Workers != 4 ||
		!strings.Contains(string(got.Result), `"backend":"parallel","workers":4`) {
		t.Fatalf("old record = %+v", got)
	}

	twin, err := runner.NewJob("table1", experiments.Options{Quick: true, Backend: "serial"})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/jobs",
		`{"experiment":"table1","options":{"quick":true,"backend":"parallel","workers":4}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit = %d: %s", resp.StatusCode, body)
	}
	var submitted jobsResponse
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if len(submitted.Jobs) != 1 || submitted.Jobs[0].ID != twin.ID() ||
		submitted.Jobs[0].Options.Backend != "serial" || submitted.Jobs[0].Options.Workers != 0 {
		t.Fatalf("resubmitted as %+v, want the serial twin %s", submitted.Jobs, twin.ID())
	}
	waitDone(t, ts.URL, 1)
	stop()

	// Second life: both records load, and the twin is answered from the
	// store without running again.
	ts2, st2, _ := newTestServer(t, storePath, counting(&count))
	if st.Path() != st2.Path() || st2.Len() != 2 {
		t.Fatalf("reopened store has %d records, want the old one and its twin", st2.Len())
	}
	resp, body = postJSON(t, ts2.URL+"/jobs", `{"experiment":"table1","options":{"quick":true,"backend":"parallel32"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("parallel32 submit = %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts2.URL+"/jobs", `{"experiment":"table1","options":{"quick":true,"backend":"parallel","workers":8}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second resubmit = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.Jobs[0].ID != twin.ID() || submitted.Jobs[0].Status != runner.StatusDone {
		t.Fatalf("second resubmit = %+v, want %s done from the store", submitted.Jobs, twin.ID())
	}
	waitDone(t, ts2.URL, 2)
	if n := count.Load(); n != 2 {
		t.Fatalf("executed %d jobs, want 2 (the serial twin once, the serial32 one once)", n)
	}
}

func TestDaemonRejectsBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"))
	cases := []string{
		`{`,
		`{}`,
		`{"experiment":"fig99"}`,
		`{"experiment":"fig4","options":{"backend":"quantum"}}`,
		`{"experiment":"fig4","sweep":{"experiments":["fig6"]}}`,
		`{"options":{"quick":true},"sweep":{"experiments":["fig6"]}}`,
		`{"sweep":{"experiments":[]}}`,
		`{"experiment":"fig4"}{"experiment":"table1"}`,
		`{"sweep":{"experiments":["fig4"],"workers":[2]}}`,
	}
	for _, body := range cases {
		if resp, _ := postJSON(t, ts.URL+"/jobs", body); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status = %d, want 400", body, resp.StatusCode)
		}
	}
	if code := getJSON(t, ts.URL+"/jobs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}
}

func TestDaemonListFilters(t *testing.T) {
	ts, _, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"))
	postJSON(t, ts.URL+"/jobs", `{"sweep":{"experiments":["fig4","table1"],"quick":[true]}}`)
	waitDone(t, ts.URL, 2)
	var list jobsResponse
	getJSON(t, ts.URL+"/jobs?experiment=fig4", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Experiment != "fig4" {
		t.Fatalf("filtered list = %+v", list.Jobs)
	}
	if len(list.Jobs[0].Result) != 0 {
		t.Fatal("list view leaked result payloads")
	}
}

// TestDaemonStatusFilter pins the ?status= polling path long churn sweeps
// rely on: completed jobs are filterable without downloading the full
// list, an empty match is an empty list (not an error), and an unknown
// status is a loud 400 — a typo silently matching nothing would read as
// "sweep finished".
func TestDaemonStatusFilter(t *testing.T) {
	ts, _, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"))
	postJSON(t, ts.URL+"/jobs", `{"sweep":{"experiments":["fig4","table1"],"quick":[true]}}`)
	waitDone(t, ts.URL, 2)
	var list jobsResponse
	if code := getJSON(t, ts.URL+"/jobs?status=done", &list); code != http.StatusOK {
		t.Fatalf("status=done = %d, want 200", code)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("done jobs = %d, want 2", len(list.Jobs))
	}
	for _, j := range list.Jobs {
		if j.Status != runner.StatusDone {
			t.Fatalf("status filter leaked %+v", j)
		}
	}
	list = jobsResponse{}
	if code := getJSON(t, ts.URL+"/jobs?status=failed", &list); code != http.StatusOK {
		t.Fatalf("status=failed = %d, want 200", code)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("failed jobs = %+v, want none", list.Jobs)
	}
	if code := getJSON(t, ts.URL+"/jobs?status=finished", nil); code != http.StatusBadRequest {
		t.Fatalf("unknown status = %d, want 400", code)
	}
	// Status and experiment filters compose.
	list = jobsResponse{}
	getJSON(t, ts.URL+"/jobs?status=done&experiment=table1", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Experiment != "table1" {
		t.Fatalf("composed filter = %+v", list.Jobs)
	}
}

// deleteJob issues DELETE /jobs/{id} and returns status code, body, and
// the Retry-After header (useful on other methods' error paths too).
func deleteJob(t *testing.T, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestDaemonCancelEndpoint exercises DELETE /jobs/{id} against every job
// phase: unknown (404), queued (202, terminal immediately), running (202,
// terminal once the executor sees the canceled context), and already
// terminal (409 with the job's final state).
func TestDaemonCancelEndpoint(t *testing.T) {
	bail := make(chan struct{})
	exec := runner.WithExecutor(func(ctx context.Context, j runner.Job) (json.RawMessage, error) {
		select {
		case <-ctx.Done():
		case <-bail: // a test failure must not park Close forever
		}
		return nil, runner.ErrCanceled
	})
	ts, _, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"), exec)
	t.Cleanup(func() { close(bail) }) // LIFO: runs before the server's stop

	// 4 slots: seeds 1-4 run (parked on ctx), seed 5 queues.
	resp, body := postJSON(t, ts.URL+"/jobs",
		`{"sweep":{"experiments":["fig4"],"seeds":[1,2,3,4,5],"quick":[true]}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}

	if code, _ := deleteJob(t, ts.URL+"/jobs/no-such-job"); code != http.StatusNotFound {
		t.Fatalf("cancel unknown = %d, want 404", code)
	}

	var queued jobsResponse
	waitStatus := func(status string, want int) jobsResponse {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			var list jobsResponse
			getJSON(t, ts.URL+"/jobs?status="+status, &list)
			if len(list.Jobs) >= want {
				return list
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %d %s jobs", want, status)
		return jobsResponse{}
	}
	// Until seeds 1-4 hold the slots, one of them may still be listed as
	// queued beside seed 5.
	waitStatus("running", 4)
	queued = waitStatus("queued", 1)

	// Queued job: canceled synchronously, never executes.
	qid := queued.Jobs[0].ID
	code, body := deleteJob(t, ts.URL+"/jobs/"+qid)
	if code != http.StatusAccepted {
		t.Fatalf("cancel queued = %d: %s", code, body)
	}
	var got runner.JobState
	if getJSON(t, ts.URL+"/jobs/"+qid, &got); got.Status != runner.StatusCanceled {
		t.Fatalf("queued job after cancel = %+v, want canceled", got)
	}

	// Terminal job: a second DELETE is a conflict carrying the final state.
	code, body = deleteJob(t, ts.URL+"/jobs/"+qid)
	if code != http.StatusConflict || !strings.Contains(string(body), `"canceled"`) {
		t.Fatalf("cancel terminal = %d: %s, want 409 with final state", code, body)
	}

	// Running jobs: DELETE is accepted immediately; each finalizes canceled
	// once its executor observes the context.
	running := waitStatus("running", 4)
	for _, j := range running.Jobs {
		if code, body := deleteJob(t, ts.URL+"/jobs/"+j.ID); code != http.StatusAccepted {
			t.Fatalf("cancel running %s = %d: %s", j.ID, code, body)
		}
	}
	waitStatus("canceled", 5)
}

// TestDaemonQueueBackpressure pins admission control: once running slots
// and the bounded queue are full, POST /jobs answers 429 with Retry-After
// and reports the partial batch, and the same submission succeeds after
// the backlog drains.
func TestDaemonQueueBackpressure(t *testing.T) {
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	gate := runner.WithExecutor(func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		started <- struct{}{}
		<-release
		return json.RawMessage(`{}`), nil
	})
	ts, _, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"),
		gate, runner.WithQueueLimit(2))
	t.Cleanup(releaseOnce) // LIFO: unblock executors before the server's stop

	// Fill all 4 slots first — one at a time so the bounded queue (which
	// counts only waiting jobs) stays empty — then both queue positions.
	submitSeed := func(seed int) (*http.Response, []byte) {
		return postJSON(t, ts.URL+"/jobs",
			fmt.Sprintf(`{"experiment":"fig4","options":{"quick":true,"seed":%d}}`, seed))
	}
	for seed := 1; seed <= 4; seed++ {
		if resp, body := submitSeed(seed); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill submit %d = %d: %s", seed, resp.StatusCode, body)
		}
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("executor for seed %d never started", seed)
		}
	}
	for seed := 5; seed <= 6; seed++ {
		if resp, body := submitSeed(seed); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue submit %d = %d: %s", seed, resp.StatusCode, body)
		}
	}

	over := `{"experiment":"fig4","options":{"quick":true,"seed":7}}`
	resp, body := postJSON(t, ts.URL+"/jobs", over)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d: %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(string(body), "queue is full") {
		t.Fatalf("429 body = %s, want a queue-full error", body)
	}

	// Drain and retry: the refused job left no trace, so resubmission is
	// clean and runs to completion.
	releaseOnce()
	waitDone(t, ts.URL, 6)
	resp, body = postJSON(t, ts.URL+"/jobs", over)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retry submit = %d: %s", resp.StatusCode, body)
	}
	waitDone(t, ts.URL, 7)
}

// TestDaemonWorkersEndpoint: the control daemon lists its registered
// workers; a worker-less daemon answers with an empty list, not an error.
func TestDaemonWorkersEndpoint(t *testing.T) {
	ts, _, _ := newTestServer(t, filepath.Join(t.TempDir(), "store.jsonl"))
	var out struct {
		Workers []fed.WorkerInfo `json:"workers"`
	}
	if code := getJSON(t, ts.URL+"/workers", &out); code != http.StatusOK {
		t.Fatalf("workers = %d", code)
	}
	if len(out.Workers) != 0 {
		t.Fatalf("workers = %+v, want none", out.Workers)
	}
	w, err := fed.Join(fed.WorkerConfig{ControlURL: ts.URL, Name: "probe", Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if code := getJSON(t, ts.URL+"/workers", &out); code != http.StatusOK || len(out.Workers) != 1 {
		t.Fatalf("workers after join = %d %+v, want one", code, out.Workers)
	}
	if out.Workers[0].Name != "probe" || out.Workers[0].Slots != 1 {
		t.Fatalf("worker info = %+v", out.Workers[0])
	}
}
