package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"aergia/internal/experiments"
	"aergia/internal/runner"
)

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fig1a", "fig6", "fig9", "table1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMissingExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Fatal("expected error without -experiment")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "fig99"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "aergia") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunQuickExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig4", "-quick", "-seed", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bf%") {
		t.Fatalf("fig4 output:\n%s", buf.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("expected flag parse error")
	}
}

func TestRunBadBackendFailsLoudly(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "fig4", "-quick", "-backend", "quantum"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("err = %v, want unknown-backend error", err)
	}
}

// TestRunBadTransportFailsLoudly pins the flag-parse-time validation: a
// mistyped -transport fails in one line naming the allowed values, before
// any experiment work starts (no dataset generation, no deep transport
// constructor error).
func TestRunBadTransportFailsLoudly(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "fig4", "-quick", "-transport", "carrier-pigeon"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "allowed values: sim, tcp") {
		t.Fatalf("err = %v, want a one-line error listing the allowed transports", err)
	}
	// The check runs even in modes that never construct a transport.
	err = run([]string{"-list", "-transport", "carrier-pigeon"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "allowed values") {
		t.Fatalf("err = %v, want parse-time validation in -list mode too", err)
	}
}

// TestRunBadChaosFailsLoudly pins the same contract for -chaos: a bad spec
// fails at flag-parse time with the accepted keys listed.
func TestRunBadChaosFailsLoudly(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "fig4", "-quick", "-chaos", "flux=1"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "keys: churn") {
		t.Fatalf("err = %v, want a one-line error listing the chaos spec keys", err)
	}
	err = run([]string{"-experiment", "fig4", "-quick", "-chaos", "churn=1.5"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "invalid -chaos") {
		t.Fatalf("err = %v, want an out-of-range chaos error", err)
	}
}

// TestRunBadCodecFailsLoudly pins the -codec contract shared with
// -transport and -chaos: a mistyped codec fails at flag-parse time with a
// one-line error naming the allowed values, before any experiment work
// starts — and even in modes that never run an experiment.
func TestRunBadCodecFailsLoudly(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-experiment", "fig4", "-quick", "-codec", "gzip"},
		{"-experiment", "fig4", "-quick", "-codec", "top-k"},
		{"-list", "-codec", "gzip"},
	} {
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "allowed values: none, q8, topk") {
			t.Fatalf("args %v: err = %v, want a one-line error listing the allowed codecs", args, err)
		}
	}
}

// TestRunBadHierFailsLoudly pins the -sample/-tiers contract shared with
// -transport, -chaos, and -codec: out-of-range values fail at flag-parse
// time with a one-line error naming the allowed values, before any
// experiment work starts — and even in modes that never run an experiment.
func TestRunBadHierFailsLoudly(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-experiment", "fig4", "-quick", "-sample", "1.5"},
		{"-experiment", "fig4", "-quick", "-sample", "-0.1"},
		{"-list", "-sample", "2"},
	} {
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "allowed values: 0 through 1") {
			t.Fatalf("args %v: err = %v, want a one-line error naming the sample range", args, err)
		}
	}
	for _, args := range [][]string{
		{"-experiment", "fig4", "-quick", "-tiers", "-3"},
		{"-list", "-tiers", "-1"},
	} {
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "allowed values: 0 or more") {
			t.Fatalf("args %v: err = %v, want a one-line error naming the tiers range", args, err)
		}
	}
}

// TestRunHierLandsInRecord checks the -sample/-tiers choice reaches the
// canonical record (and thus the result store's dedup key), while the flat
// default — including the inert -sample 1 — stays collapsed out of the
// encoding, keeping pre-hier records and job IDs byte-identical.
func TestRunHierLandsInRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-quick", "-sample", "0.25", "-tiers", "4", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"hier":{"sample":0.25,"tiers":4}`) {
		t.Fatalf("record does not carry the hier options:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-experiment", "table1", "-quick", "-sample", "1", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"hier"`) {
		t.Fatalf("inert hier options leaked into the record:\n%s", buf.String())
	}
}

// TestRunCodecLandsInRecord checks the -codec choice reaches the canonical
// record (and thus the result store's dedup key), while the default stays
// collapsed out of the encoding.
func TestRunCodecLandsInRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-quick", "-codec", "topk", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"codec":"topk"`) {
		t.Fatalf("record does not carry the codec:\n%s", buf.String())
	}
	buf.Reset()
	if err := run([]string{"-experiment", "table1", "-quick", "-codec", "none", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"codec"`) {
		t.Fatalf("default codec leaked into the record:\n%s", buf.String())
	}
}

// TestRunChaosLandsInRecord checks the -chaos plan reaches the canonical
// record (and thus the result store's dedup key).
func TestRunChaosLandsInRecord(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-quick", "-chaos", "churn=0.5,rejoin=1", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"chaos"`) || !strings.Contains(buf.String(), `"churn":0.5`) {
		t.Fatalf("record does not carry the chaos plan:\n%s", buf.String())
	}
}

// TestRunTCPTransport exercises the real-RPC binding end to end through the
// CLI: fig4 is compute-only (no FL rounds), so table1 — which is pure
// metadata — is the cheap smoke; the transport still has to normalize and
// land in the record. The heavier tcp path is covered by the fl test suite
// and the examples/distributed CI smoke.
func TestRunTCPTransport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "table1", "-quick", "-transport", "tcp", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"transport":"tcp"`) {
		t.Fatalf("record does not carry the transport:\n%s", buf.String())
	}
}

// TestRunJSONEmitsCanonicalRecords checks that -json prints exactly the
// record bytes the result store persists for the same options.
func TestRunJSONEmitsCanonicalRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "fig4", "-quick", "-seed", "3", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSuffix(buf.String(), "\n")
	if strings.Contains(got, "\n") {
		t.Fatalf("want one JSONL line, got:\n%s", got)
	}
	rec, err := experiments.Run("fig4", experiments.Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-json output diverged from canonical record:\ncli:    %s\ndirect: %s", got, want)
	}
	var decoded struct {
		Experiment string              `json:"experiment"`
		Options    experiments.Options `json:"options"`
		Data       json.RawMessage     `json:"data"`
	}
	if err := json.Unmarshal([]byte(got), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Experiment != "fig4" || decoded.Options.Seed != 3 || !decoded.Options.Quick {
		t.Fatalf("decoded record = %+v", decoded)
	}
	if len(decoded.Data) == 0 {
		t.Fatal("record has no data payload")
	}
}

func TestRunSweepInProcessAndResume(t *testing.T) {
	storePath := filepath.Join(t.TempDir(), "sweep.jsonl")
	spec := `{"experiments":["fig4","table1"],"seeds":[1,2],"quick":[true]}`

	var buf bytes.Buffer
	if err := run([]string{"-sweep", spec, "-store", storePath, "-jobs", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sweep: 4 jobs") || strings.Count(out, "done") != 4 {
		t.Fatalf("sweep output:\n%s", out)
	}

	// Re-running the same sweep resumes from the store: all four jobs come
	// back done without recomputation (their persisted records survive).
	st, err := runner.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	before := st.List()
	st.Close()
	if len(before) != 4 {
		t.Fatalf("store has %d records, want 4", len(before))
	}

	buf.Reset()
	if err := run([]string{"-sweep", spec, "-store", storePath, "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("-json sweep printed %d lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var rec runner.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if rec.Status != runner.StatusDone || len(rec.Result) == 0 {
			t.Fatalf("resumed record = %+v", rec)
		}
	}
	st, err = runner.Open(storePath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 4 || st.Skipped() != 0 {
		t.Fatalf("after resume: %d records, %d skipped — the rerun recomputed", st.Len(), st.Skipped())
	}
}

func TestRunSweepBadSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", `{"experiments":}`},
		{"-sweep", `{"experiments":["fig99"]}`},
		{"-sweep", `{"unknown_field":1}`},
		{"-sweep", `{"experiments":["fig4"],"workers":[0,2]}`}, // the axis went with the kernel pool
		{"-experiment", "fig4", "-workers", "2"},
		{"-sweep", `@/does/not/exist.json`},
		{"-sweep", `{"experiments":["fig4"]}`, "-experiment", "fig4"},
		{"-sweep", `{"experiments":["fig4"]}`, "-quick"},
		{"-sweep", `{"experiments":["fig4"]}`, "-seed", "5"},
		{"-sweep", `{"experiments":["fig4"]}`, "-chaos", "churn=0.5"},
		{"-sweep", `{"experiments":["fig4"]}`, "-codec", "topk"},
		{"-sweep", `{"experiments":["fig4"]}`, "-sample", "0.5"},
		{"-sweep", `{"experiments":["fig4"]}`, "-tiers", "2"},
		{"-sweep", `{"experiments":["fig4"]} {"experiments":["table1"]}`},
		{"-experiment", "fig4", "-quick", "-store", "x.jsonl"},
		{"-experiment", "fig4", "-quick", "-jobs", "2"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v: expected error", args)
		}
	}
}
