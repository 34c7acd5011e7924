package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"aergia/internal/race"
	"aergia/internal/runner"
)

// writeRecorder is an http.ResponseWriter that records the largest single
// Write a handler makes, and the body unless discard is set.
type writeRecorder struct {
	header  http.Header
	code    int
	body    bytes.Buffer
	discard bool
	largest int
}

func newWriteRecorder(discard bool) *writeRecorder {
	return &writeRecorder{header: make(http.Header), discard: discard}
}

func (w *writeRecorder) Header() http.Header  { return w.header }
func (w *writeRecorder) WriteHeader(code int) { w.code = code }

func (w *writeRecorder) Write(p []byte) (int, error) {
	w.largest = max(w.largest, len(p))
	if w.discard {
		return len(p), nil
	}
	return w.body.Write(p)
}

// WriteString is net/http's: a handler's io.WriteString converts nothing.
func (w *writeRecorder) WriteString(s string) (int, error) {
	w.largest = max(w.largest, len(s))
	if w.discard {
		return len(s), nil
	}
	return w.body.WriteString(s)
}

// sweepBody is a POST /jobs sweep of n quick table1 runs, seeds 1..n.
func sweepBody(n int) string {
	seeds := make([]string, n)
	for i := range seeds {
		seeds[i] = fmt.Sprint(i + 1)
	}
	return `{"sweep":{"experiments":["table1"],"seeds":[` + strings.Join(seeds, ",") + `],"quick":[true]}}`
}

// sweepJobs is sweepBody(n)'s grid.
func sweepJobs(t testing.TB, n int) []runner.Job {
	t.Helper()
	sweep := runner.Sweep{Experiments: []string{"table1"}, Quick: []bool{true}}
	for i := range n {
		sweep.Seeds = append(sweep.Seeds, uint64(i+1))
	}
	jobs, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// finishedDaemon serves a control with no local slot over a store that
// holds n done jobs, every one submitted to its runner.
func finishedDaemon(t testing.TB, n int) (*runner.Runner, http.Handler) {
	t.Helper()
	jobs := sweepJobs(t, n)
	var lines []byte
	for _, job := range jobs {
		line, err := json.Marshal(runner.Record{ID: job.ID(), Experiment: job.Experiment, Options: job.Options,
			Status: runner.StatusDone, Elapsed: 1500, Worker: "1:w1", Result: json.RawMessage(`{"x":1}`)})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := runner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := runner.New(st, -1)
	t.Cleanup(r.Close)
	if _, err := r.SubmitAll(jobs); err != nil {
		t.Fatal(err)
	}
	return r, newServer(r, st, nil, false)
}

// queuingDaemon serves a control with no local slot and no jobs, whose
// queue admits queueMax (0: any number).
func queuingDaemon(t testing.TB, queueMax int) (*runner.Runner, http.Handler) {
	t.Helper()
	st, err := runner.Open(filepath.Join(t.TempDir(), "store.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	r := runner.New(st, -1, runner.WithQueueLimit(queueMax))
	t.Cleanup(r.Close)
	return r, newServer(r, st, nil, false)
}

// referenceBody is what writeJSON wrote for a list of states: one Encode
// of the whole map.
func referenceBody(t *testing.T, err error, states []runner.JobState) string {
	t.Helper()
	for i := range states {
		states[i].Result = nil
	}
	body := map[string]any{"jobs": states}
	if err != nil {
		body["error"] = err.Error()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDaemonStreamsJobLists: a 5000-job sweep's POST, its 429 when the
// queue admits part of it, and an unfiltered GET /jobs over 20000 finished
// jobs write their bodies a job at a time — no Write of more than 4 KiB —
// and byte for byte as one Encode of the whole {"jobs": states} map did.
func TestDaemonStreamsJobLists(t *testing.T) {
	const sweep, finished, maxWrite = 5000, 20000, 4 << 10
	check := func(name string, w *writeRecorder, code int, want string) {
		t.Helper()
		if w.code != code {
			t.Fatalf("%s = %d: %.200s", name, w.code, w.body.String())
		}
		if w.largest > maxWrite {
			t.Errorf("%s wrote %d B at once, want at most %d", name, w.largest, maxWrite)
		}
		if got := w.body.String(); got != want {
			t.Errorf("%s wrote a %d B body that differs from the %d B of one Encode of the map", name, len(got), len(want))
		}
	}
	post := func(h http.Handler, body string) *writeRecorder {
		w := newWriteRecorder(false)
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		return w
	}
	jobs := sweepJobs(t, sweep)

	r, h := queuingDaemon(t, 0)
	w := post(h, sweepBody(sweep))
	states, err := r.SubmitAll(jobs) // a resubmit reads the same states
	if err != nil {
		t.Fatal(err)
	}
	check("POST of a 5000-job sweep", w, http.StatusAccepted, referenceBody(t, nil, states))

	r, h = queuingDaemon(t, sweep/2)
	w = post(h, sweepBody(sweep))
	states, err = r.SubmitAll(jobs) // refused at the same job, with the same error
	if len(states) != sweep/2 || err == nil {
		t.Fatalf("resubmitting the refused sweep admits %d jobs, %v", len(states), err)
	}
	check("POST of a 5000-job sweep past the queue bound", w, http.StatusTooManyRequests, referenceBody(t, err, states))

	r, h = finishedDaemon(t, finished)
	w = newWriteRecorder(false)
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	check("GET /jobs over 20000 finished jobs", w, http.StatusOK, referenceBody(t, nil, r.List("", "")))
}

// allocated reports the bytes fn allocates, whoever allocates them.
func allocated(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestDaemonJobListAllocationBudget pins what a list body costs to build.
// A 5000-job sweep's POST to a control with no local slot allocated
// 21.0 MB when the queue held a Job copy a job, Expand grew its slices by
// append and the body was one Encode, and 8.45 MB when Job.ID marshalled
// each job's options by value; it is 7.53 MB now, and the budget is that
// plus 10%. An unfiltered GET /jobs over 60408 finished jobs
// allocated 63.0 MB when List built every state before one Encode of the
// body; walking the jobs, and encoding each through a pointer so that
// json's omitzero checks box no option copy, it is 2.9 MB, against a
// budget of 4 MB.
func TestDaemonJobListAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("60408 jobs through a store on disk")
	}
	if race.Enabled {
		t.Skip("the race detector's own allocations are not the program's")
	}
	const sweep, finished = 5000, 60408
	const postBudget, getBudget = 7.53e6 * 1.1, 4e6

	_, h := queuingDaemon(t, 0)
	body := sweepBody(sweep)
	w := newWriteRecorder(true)
	post := allocated(func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	})
	t.Logf("POST of a %d-job sweep allocates %.2f MB", sweep, post/1e6)
	if w.code != http.StatusAccepted {
		t.Fatalf("POST of the sweep = %d", w.code)
	}
	if post > postBudget {
		t.Errorf("POST of a %d-job sweep allocates %.2f MB, budget %.2f", sweep, post/1e6, postBudget/1e6)
	}

	_, h = finishedDaemon(t, finished)
	w = newWriteRecorder(true)
	get := allocated(func() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	})
	t.Logf("GET /jobs over %d finished jobs allocates %.2f MB", finished, get/1e6)
	if w.code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", w.code)
	}
	if get > getBudget {
		t.Errorf("GET /jobs over %d finished jobs allocates %.2f MB, budget %.2f", finished, get/1e6, getBudget/1e6)
	}
}

// BenchmarkDaemonListFinished times an unfiltered GET /jobs over 60408
// finished jobs, body discarded.
func BenchmarkDaemonListFinished(b *testing.B) {
	_, h := finishedDaemon(b, 60408)
	w := newWriteRecorder(true)
	b.ReportAllocs()
	for b.Loop() {
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	}
}
