package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"aergia/internal/experiments"
	"aergia/internal/obs"
	"aergia/internal/runner"
)

// bodiesFixture drives one daemon life through every way a job can end:
// done by the local slot (with round events), done by a lease, canceled
// while queued, failed, and done in an earlier life and resubmitted. A
// sixth job is done in an earlier life and never resubmitted.
type bodiesFixture struct {
	url     string
	store   *runner.Store
	ids     map[string]string // role -> job ID
	submits []string          // POST /jobs exchanges, in order
}

func fixtureJob(t *testing.T, experiment string, seed uint64) runner.Job {
	t.Helper()
	job, err := runner.NewJob(experiment, experiments.Options{Quick: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

func newBodiesFixture(t *testing.T) *bodiesFixture {
	t.Helper()
	roles := map[string]runner.Job{
		"local":    fixtureJob(t, "fig4", 1),
		"leased":   fixtureJob(t, "table1", 2),
		"canceled": fixtureJob(t, "fig4", 3),
		"failed":   fixtureJob(t, "table1", 4),
		"earlier":  fixtureJob(t, "fig4", 5),
		"unlisted": fixtureJob(t, "table1", 6),
	}
	// An earlier daemon life left two done records: one produced by a
	// federation worker (resubmitted in this life) and one local one
	// (never resubmitted).
	path := filepath.Join(t.TempDir(), "store.jsonl")
	var lines []byte
	for _, rec := range []runner.Record{
		{ID: roles["earlier"].ID(), Experiment: "fig4", Options: roles["earlier"].Options,
			Status: runner.StatusDone, Elapsed: 4242, Worker: "1:w0", Result: json.RawMessage(`{"earlier":true}`)},
		{ID: roles["unlisted"].ID(), Experiment: "table1", Options: roles["unlisted"].Options,
			Status: runner.StatusDone, Elapsed: 77, Result: json.RawMessage(`{"unlisted":true}`)},
	} {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(append(lines, line...), '\n')
	}
	if err := os.WriteFile(path, lines, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := runner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	started := make(chan struct{})
	release := make(chan struct{})
	exec := func(_ context.Context, j runner.Job) (json.RawMessage, error) {
		switch j.ID() {
		case roles["local"].ID():
			close(started)
			<-release
			j.Options.Events.Publish(obs.RoundEvent{Round: 1, Accuracy: 0.5, Straggler: 3})
			j.Options.Events.Publish(obs.RoundEvent{Round: 2, Accuracy: 0.75, Straggler: 4})
			return json.RawMessage(`{"local":true}`), nil
		case roles["failed"].ID():
			return nil, fmt.Errorf("boom")
		}
		return nil, fmt.Errorf("unexpected local run of %s", j.ID())
	}
	r := runner.New(st, 1, runner.WithExecutor(exec))
	t.Cleanup(r.Close)
	ts := httptest.NewServer(newServer(r, st, nil, false))
	t.Cleanup(ts.Close)

	var submits []string
	submit := func(job runner.Job) []byte {
		body, err := json.Marshal(map[string]any{"experiment": job.Experiment, "options": job.Options})
		if err != nil {
			t.Fatal(err)
		}
		resp, out := postJSON(t, ts.URL+"/jobs", string(body))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d: %s", job.ID(), resp.StatusCode, out)
		}
		submits = append(submits, string(out))
		return out
	}
	// The local job holds the only slot while the rest are queued behind it.
	submit(roles["local"])
	<-started
	submit(roles["leased"])
	leases := r.Lease("1:w1", 1)
	if len(leases) != 1 || leases[0].Job.ID() != roles["leased"].ID() {
		t.Fatalf("lease = %+v", leases)
	}
	if err := r.Complete(leases[0].Job.ID(), leases[0].Seq, runner.Record{
		Status: runner.StatusDone, Elapsed: 1500, Result: json.RawMessage(`{"leased":true}`)}); err != nil {
		t.Fatal(err)
	}
	submit(roles["canceled"])
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+roles["canceled"].ID(), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel queued = %d", resp.StatusCode)
	}
	submit(roles["failed"])
	submit(roles["earlier"])
	close(release)
	r.Wait()

	ids := make(map[string]string, len(roles))
	for role, job := range roles {
		ids[role] = job.ID()
	}
	return &bodiesFixture{url: ts.URL, store: st, ids: ids, submits: submits}
}

// body fetches one response as "<code> <body>", with the wall-clock
// elapsed_ns of locally run jobs replaced by their role name.
func (f *bodiesFixture) body(t *testing.T, method, path string) string {
	t.Helper()
	req, err := http.NewRequest(method, f.url+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return f.scrub(t, strconv.Itoa(resp.StatusCode)+" "+string(raw))
}

// scrub replaces job IDs by their roles and the wall-clock elapsed_ns of
// locally run jobs by a placeholder.
func (f *bodiesFixture) scrub(t *testing.T, out string) string {
	t.Helper()
	for _, role := range []string{"local", "failed"} {
		rec, ok := f.store.Meta(f.ids[role])
		if !ok {
			t.Fatalf("%s job not in the store", role)
		}
		out = strings.ReplaceAll(out, fmt.Sprintf(`"elapsed_ns":%d`, rec.Elapsed), `"elapsed_ns":"`+role+`"`)
	}
	for role, id := range f.ids {
		out = strings.ReplaceAll(out, id, "{"+role+"}")
	}
	return out
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/bodies.golden from this run")

// TestDaemonResponseBodiesPinned pins every job body the daemon serves —
// submit, list with and without filters, get, cancel of a finished job,
// and the event stream — for the fixture's jobs, whether the runner or the
// store's index holds them, and a sweep's partial admission (429). The golden file was written before finished
// jobs moved into the store's index, when the runner held them too; the
// only bodies that changed since are the resubmitted earlier-life job's,
// which gained the worker Submit used to drop. Run with -update to rewrite
// it after a deliberate change.
func TestDaemonResponseBodiesPinned(t *testing.T) {
	f := newBodiesFixture(t)
	var got []string
	for _, out := range f.submits {
		got = append(got, "POST /jobs -> "+f.scrub(t, "202 "+out))
	}
	add := func(method, path string) {
		got = append(got, method+" "+f.scrub(t, path)+" -> "+f.body(t, method, path))
	}
	add("GET", "/jobs")
	add("GET", "/jobs?status=done")
	add("GET", "/jobs?status=canceled")
	add("GET", "/jobs?experiment=table1")
	add("GET", "/jobs?status=failed&experiment=table1")
	for _, role := range []string{"local", "leased", "canceled", "failed", "earlier", "unlisted"} {
		id := f.ids[role]
		add("GET", "/jobs/"+id)
		add("DELETE", "/jobs/"+id)
		add("GET", "/jobs/"+id+"/events")
	}
	got = append(got, "POST /jobs -> "+queueFullExchange(t))
	golden := filepath.Join("testdata", "bodies.golden")
	text := strings.Join(got, "")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		t.Fatalf("response bodies diverged from %s:\n%s", golden, text)
	}
}

// queueFullExchange submits a four-job sweep to a control whose queue
// admits two, over a store that holds the sweep's second job done, and
// returns the refusal as "<code> <body>": the admitted states, done and
// queued, beside the error.
func queueFullExchange(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	done := fixtureJob(t, "table1", 2)
	line, err := json.Marshal(runner.Record{ID: done.ID(), Experiment: "table1", Options: done.Options,
		Status: runner.StatusDone, Elapsed: 88, Worker: "1:w2", Result: json.RawMessage(`{"done":true}`)})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := runner.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := runner.New(st, -1, runner.WithQueueLimit(2))
	defer r.Close()
	ts := httptest.NewServer(newServer(r, st, nil, false))
	defer ts.Close()
	resp, out := postJSON(t, ts.URL+"/jobs", `{"sweep":{"experiments":["table1"],"seeds":[1,2,3,4],"quick":[true]}}`)
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("sweep past the queue bound = %d (Retry-After %q): %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), out)
	}
	return strconv.Itoa(resp.StatusCode) + " " + string(out)
}

// TestDaemonResubmitKeepsWorker: a job a federation worker finished reads
// the same before a restart as after it and a resubmit of the job, worker
// included, and the same as the store's record. Submit's store answer used
// to copy only status and elapsed, so a restarted daemon lost the worker.
func TestDaemonResubmitKeepsWorker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	job := fixtureJob(t, "table1", 11)
	spec := `{"experiment":"table1","options":{"quick":true,"seed":11}}`
	life := func() (*runner.Runner, *runner.Store, *httptest.Server) {
		st, err := runner.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r := runner.New(st, -1)
		return r, st, httptest.NewServer(newServer(r, st, nil, false))
	}
	fetch := func(ts *httptest.Server) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/jobs/" + job.ID())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return strings.TrimSpace(string(raw))
	}
	submitted := func(ts *httptest.Server) string {
		t.Helper()
		_, body := postJSON(t, ts.URL+"/jobs", spec)
		var out struct{ Jobs []json.RawMessage }
		if err := json.Unmarshal(body, &out); err != nil || len(out.Jobs) != 1 {
			t.Fatalf("submit = %s", body)
		}
		return string(out.Jobs[0])
	}

	r, st, ts := life()
	submitted(ts)
	l := r.Lease("1:w1", 1)
	if err := r.Complete(l[0].Job.ID(), l[0].Seq, runner.Record{Status: runner.StatusDone, Elapsed: 99,
		Result: json.RawMessage(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	before := fetch(ts)
	if !strings.Contains(before, `"worker":"1:w1"`) {
		t.Fatalf("job done by w1 reads %s", before)
	}
	ts.Close()
	r.Close()
	st.Close()

	r, st, ts = life()
	defer func() { ts.Close(); r.Close(); st.Close() }()
	meta := strings.Replace(before, `,"result":{"x":1}`, "", 1)
	if got := submitted(ts); got != meta {
		t.Fatalf("resubmit after restart answers\n%s\nwant\n%s", got, meta)
	}
	if got := fetch(ts); got != before {
		t.Fatalf("after restart and resubmit the job reads\n%s\nwant\n%s", got, before)
	}
	var list jobsResponse
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Worker != "1:w1" {
		t.Fatalf("listed after restart and resubmit: %+v", list.Jobs)
	}
	rec, _ := st.Get(job.ID())
	if stored, _ := json.Marshal(rec); string(stored) != before {
		t.Fatalf("the store's record is\n%s\nwant\n%s", stored, before)
	}
}
