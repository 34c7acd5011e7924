package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"aergia/internal/runner"
)

// digestHex is the tail of every job ID: 96 bits of digest in lowercase
// hex, which the store's index keeps as 12 bytes.
var digestHex = regexp.MustCompile(`^[0-9a-f]{24}$`)

// FuzzSubmitBody posts arbitrary bodies to POST /jobs. Every job of a body
// the daemon accepts must have an ID of the form <experiment>-<24
// lowercase hex>, and resubmitting the job in its canonical form — the
// experiment and options its state reads — must name the same job rather
// than add one: the identity function is the same on both paths.
func FuzzSubmitBody(f *testing.F) {
	for _, body := range []string{
		`{"experiment":"fig4","options":{"quick":true,"seed":7}}`,
		`{"experiment":"table1"}`,
		`{"experiment":"fig4","options":{"backend":"parallel32","seed":0,"workers":4}}`,
		`{"experiment":"fig1a","options":{"quick":true,"codec":"topk","chaos":{"churn":0.5,"rejoin":1}}}`,
		`{"sweep":{"experiments":["fig4","table1"],"seeds":[1,2,2],"quick":[true,false],"backends":["serial","parallel"]}}`,
		`{"sweep":{"experiments":["fig1a"],"codecs":["none","q8"],"tiers":[0,2],"samples":[0.5]}}`,
		`{"experiment":"fig4","sweep":{"experiments":["fig4"]}}`,
		`{"experiment":"fig4"} {}`,
		`not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// No slots and no store: accepted jobs stay queued, and a bound on
		// the queue bounds what one input can cost.
		r := runner.New(nil, -1, runner.WithQueueLimit(256))
		defer r.Close()
		h := newServer(r, nil, nil, false)
		post := func(body []byte) (int, []runner.JobState) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
			var resp jobsResponse
			if w.Code == http.StatusAccepted {
				if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
					t.Fatalf("decode the 202 body %s: %v", w.Body, err)
				}
			}
			return w.Code, resp.Jobs
		}
		held := func() (n int) {
			for _, c := range r.Counts() {
				n += c
			}
			return n
		}
		code, jobs := post(body)
		if code != http.StatusAccepted {
			return
		}
		before := held()
		for _, st := range jobs {
			if rest, ok := strings.CutPrefix(st.ID, st.Experiment+"-"); !ok || !digestHex.MatchString(rest) {
				t.Fatalf("job %q of experiment %q is not <experiment>-<24 lowercase hex>", st.ID, st.Experiment)
			}
			canonical, err := json.Marshal(submitRequest{Experiment: st.Experiment, Options: st.Options})
			if err != nil {
				t.Fatal(err)
			}
			if code, again := post(canonical); code != http.StatusAccepted || len(again) != 1 || again[0].ID != st.ID {
				t.Fatalf("job %s resubmitted as %s reads %d %+v", st.ID, canonical, code, again)
			}
		}
		if n := held(); n != before {
			t.Fatalf("resubmitting %d jobs in canonical form took the runner from %d jobs to %d", len(jobs), before, n)
		}
	})
}
