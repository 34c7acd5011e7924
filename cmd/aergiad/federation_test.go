package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aergia/internal/fed"
	"aergia/internal/runner"
)

// newControlServer starts a pure control-plane daemon (no local slots):
// jobs only make progress when a worker joins and pulls them.
func newControlServer(t *testing.T, storePath string) (*httptest.Server, *runner.Runner) {
	t.Helper()
	st, err := runner.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	r := runner.New(st, -1)
	ctrl, err := fed.NewControl(r, fed.ControlConfig{Heartbeat: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(r, st, ctrl, false))
	t.Cleanup(func() {
		ts.Close()
		if err := ctrl.Close(); err != nil {
			t.Errorf("control close: %v", err)
		}
		r.Close()
		st.Close()
	})
	return ts, r
}

// TestDaemonFederationEndToEnd drives the full HTTP surface of a
// federated deployment: a pure-control daemon accepts a sweep, two joined
// workers drain it exactly once, /workers reports them, DELETE of a
// leased job propagates over the wire, and the control's /metrics scrape
// carries per-worker lease counters.
func TestDaemonFederationEndToEnd(t *testing.T) {
	ts, _ := newControlServer(t, filepath.Join(t.TempDir(), "store.jsonl"))

	// The job the test cancels runs until it is canceled, and says when it
	// has started: it reads leased from then on, whatever the timing.
	started := make(chan struct{}, 1)
	exec := func(ctx context.Context, j runner.Job) (json.RawMessage, error) {
		if j.Experiment == "fig6" {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, runner.ErrCanceled
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			return nil, runner.ErrCanceled
		}
		return json.RawMessage(fmt.Sprintf(`{"job":%q}`, j.ID())), nil
	}
	for _, name := range []string{"w1", "w2"} {
		w, err := fed.Join(fed.WorkerConfig{ControlURL: ts.URL, Name: name, Slots: 2, Execute: exec})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
	}
	var workers struct {
		Workers []fed.WorkerInfo `json:"workers"`
	}
	if code := getJSON(t, ts.URL+"/workers", &workers); code != http.StatusOK || len(workers.Workers) != 2 {
		t.Fatalf("workers = %d %+v, want both registered", code, workers.Workers)
	}

	resp, body := postJSON(t, ts.URL+"/jobs",
		`{"sweep":{"experiments":["fig4"],"seeds":[1,2,3,4,5,6,7,8],"quick":[true]}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	done := waitDone(t, ts.URL, 8)
	perWorker := map[string]int{}
	for _, j := range done {
		var got runner.JobState
		getJSON(t, ts.URL+"/jobs/"+j.ID, &got)
		if got.Worker == "" {
			t.Fatalf("job %s has no worker attribution: %+v", j.ID, got)
		}
		perWorker[got.Worker]++
	}
	if len(perWorker) != 2 {
		t.Fatalf("work went to %v, want both workers", perWorker)
	}

	// Cancel a job leased to a worker: the DELETE must cross the wire and
	// finalize the job canceled on the control.
	resp, body = postJSON(t, ts.URL+"/jobs",
		`{"experiment":"fig6","options":{"quick":true,"seed":99}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit long job = %d: %s", resp.StatusCode, body)
	}
	var submitted jobsResponse
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	id := submitted.Jobs[0].ID
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the job to cancel never started")
	}
	var leased runner.JobState
	if getJSON(t, ts.URL+"/jobs/"+id, &leased); leased.Status != runner.StatusLeased {
		t.Fatalf("running remote job = %+v, want leased", leased)
	}
	deadline := time.Now().Add(10 * time.Second)
	if code, body := deleteJob(t, ts.URL+"/jobs/"+id); code != http.StatusAccepted {
		t.Fatalf("cancel leased = %d: %s", code, body)
	}
	for {
		var got runner.JobState
		getJSON(t, ts.URL+"/jobs/"+id, &got)
		if got.Status == runner.StatusCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled job never finalized: %+v", got)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The control-side scrape attributes leases per worker.
	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	raw, err := io.ReadAll(metricsResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(raw)
	for _, want := range []string{
		`aergia_fed_leases_total{worker="`,
		"aergia_fed_workers 2",
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, scrape)
		}
	}
}
