package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s differ:\n got  %v\n want %v", what, got, want)
	}
	for _, n := range got {
		if !nameRE.MatchString(n) {
			t.Errorf("%s: name %q has characters outside [A-Za-z0-9_.-]", what, n)
		}
	}
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json to the names and
// units the harness prints, so the two cannot drift apart.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(benchDir)
	if err != nil {
		t.Fatal(err)
	}
	var fileWorkloads []string
	for _, w := range bf.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name)
	}
	sameNames(t, "workloads", fileWorkloads, append([]string(nil), workloads...))

	units := make(map[string]string)
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	var fileE2E, fileLayer []string
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the harness", m.Name, m.Unit, units[m.Name])
		}
		// A quarter is the benchmark contract's ceiling; README.md says why
		// the timing bounds sit at it.
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		fileLayer = append(fileLayer, m.Name)
		if units[m.Name] != m.Unit {
			t.Errorf("%s: unit %q in BENCHMARK.json, %q in the harness", m.Name, m.Unit, units[m.Name])
		}
	}
	sameNames(t, "end-to-end metrics", fileE2E, names(endToEnd))
	sameNames(t, "per-layer metrics", fileLayer, names(perLayer))
	if bf.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, harness is sized for %d", bf.RunSeconds, refSeconds)
	}
}

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// what a run prints: every metric of its kind by name, the op counts, a
// well-formed result line, no failed op — and that no daemon outlives it.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and trains models")
	}
	benchDir, err := findBenchDir()
	if err != nil {
		t.Fatal(err)
	}
	env := &environment{benchDir: benchDir}
	t.Cleanup(func() {
		if left := daemonsAlive(t, filepath.Join(benchDir, ".build", "aergiad")); len(left) > 0 {
			t.Errorf("aergiad children survived the test: pids %v", left)
		}
	})
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				res, err := runWorkload(context.Background(), &out, env,
					options{workload: w, seed: 3, seconds: refSeconds, trace: traced, toy: true})
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if res.failed != 0 || res.attempted < 1 {
					t.Errorf("%d of %d ops failed\n%s", res.failed, res.attempted, out.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				checkReport(t, out.String(), defs)
				if traced {
					if _, err := os.Stat(filepath.Join(benchDir, "out", "trace-"+w+".json")); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// checkReport parses a run's output the way a reader and the driver do.
func checkReport(t *testing.T, out string, defs []metricDef) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var printed []string
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "metric: "); ok {
			f := strings.Fields(rest)
			if len(f) != 3 {
				t.Errorf("metric line %q is not name, value, unit", l)
				continue
			}
			printed = append(printed, f[0])
		}
	}
	sameNames(t, "printed metrics", printed, append(names(defs), "ops_attempted", "ops_failed"))

	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("result line: %v\n%s", err, lines[len(lines)-1])
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || !*got.Correct {
		t.Errorf("result line lacks correct/attempted/failed or is not correct: %s", lines[len(lines)-1])
	}
	var inResult []string
	for n, m := range got.Metrics {
		inResult = append(inResult, n)
		if m.Value == nil || m.Unit == "" {
			t.Errorf("result metric %s lacks a value or a unit", n)
		}
	}
	sameNames(t, "result metrics", inResult, names(defs))
}

// daemonsAlive lists the processes still running the harness's aergiad.
func daemonsAlive(t *testing.T, bin string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var alive []string
	for _, p := range procs {
		cmdline, err := os.ReadFile(p)
		if err == nil && strings.HasPrefix(string(cmdline), bin+"\x00") {
			alive = append(alive, filepath.Base(filepath.Dir(p)))
		}
	}
	return alive
}
