package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aergia/internal/dataset"
	"aergia/internal/hier"
	"aergia/internal/nn"
)

// mustNormalize is a test helper for encoding comparisons on canonical
// option values.
func mustNormalize(t *testing.T, o Options) Options {
	t.Helper()
	norm, err := o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

var quick = Options{Quick: true, Seed: 7}

func TestNamesCoverRegistry(t *testing.T) {
	names := Names()
	if len(names) != len(Registry) {
		t.Fatalf("names = %d, registry = %d", len(names), len(Registry))
	}
	required := []string{
		"fig1a", "fig1b", "fig1c", "fig4", "fig6", "fig7",
		"fig8", "fig9", "fig10", "table1", "profiler",
	}
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	for _, r := range required {
		if !set[r] {
			t.Fatalf("experiment %q missing from registry", r)
		}
	}
}

func TestFig4PhaseSharesMatchPaperShape(t *testing.T) {
	shares, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 5 {
		t.Fatalf("architectures = %d, want the paper's 5", len(shares))
	}
	for _, s := range shares {
		total := s.FF + s.FC + s.BC + s.BF
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%s shares sum to %v", s.Arch, total)
		}
		// The paper's Figure 4: bf dominates every combination (52-75%).
		if s.BF < 0.5 || s.BF > 0.8 {
			t.Fatalf("%s bf share = %v", s.Arch, s.BF)
		}
	}
}

func TestFig1aVarianceIncreasesRoundTime(t *testing.T) {
	points, err := Fig1a(quick)
	if err != nil {
		t.Fatal(err)
	}
	byClients := map[int][]Fig1aPoint{}
	for _, p := range points {
		byClients[p.Clients] = append(byClients[p.Clients], p)
	}
	for n, ps := range byClients {
		if ps[0].Variance != 0 || ps[0].Multiplier != 1 {
			t.Fatalf("n=%d baseline point = %+v", n, ps[0])
		}
		last := ps[len(ps)-1]
		if last.Multiplier <= 1 {
			t.Fatalf("n=%d: max-variance multiplier = %v, want > 1", n, last.Multiplier)
		}
	}
}

func TestDeadlineSweepShape(t *testing.T) {
	points, err := DeadlineSweep(quick, true)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Label != "inf" {
		t.Fatalf("first point = %+v", points[0])
	}
	// Deadlines bound training time below the unbounded run (Figure 1b)...
	for _, p := range points[1:] {
		if p.TotalTime >= points[0].TotalTime {
			t.Fatalf("deadline %s total %v >= unbounded %v", p.Label, p.TotalTime, points[0].TotalTime)
		}
		if p.MeanDrops <= 0 {
			t.Fatalf("deadline %s dropped no clients", p.Label)
		}
	}
	// ...and the tightest deadline hurts accuracy vs unbounded (Figure 1c).
	tightest := points[len(points)-1]
	if tightest.Accuracy >= points[0].Accuracy {
		t.Fatalf("tightest deadline accuracy %v >= unbounded %v",
			tightest.Accuracy, points[0].Accuracy)
	}
}

func TestProfilerOverheadBelowOnePercent(t *testing.T) {
	results, err := ProfilerOverhead(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Overhead <= 0 || r.Overhead > 0.01 {
			t.Fatalf("%s overhead = %v, want (0, 1%%]", r.Arch, r.Overhead)
		}
	}
}

func TestAblationFreezeSavingsMatchBF(t *testing.T) {
	gains, err := AblationFreeze(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gains {
		if g.Saving < 0.5 || g.Saving > 0.8 {
			t.Fatalf("%s saving = %v, want bf-dominated range", g.Arch, g.Saving)
		}
	}
}

func TestAblationSchedImproves(t *testing.T) {
	gain, err := AblationSched(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !gain.NeverWorse {
		t.Fatal("Algorithm 1 made some cluster worse")
	}
	if gain.MeanReduction <= 0.05 {
		t.Fatalf("mean makespan reduction = %v, want > 5%%", gain.MeanReduction)
	}
}

func TestRunnersProduceOutput(t *testing.T) {
	// The cheap runners run end-to-end here; the expensive grid runners are
	// covered by the benchmark harness.
	for _, name := range []string{"fig4", "table1", "profiler", "ablation-freeze", "ablation-sched"} {
		runner, ok := Registry[name]
		if !ok {
			t.Fatalf("runner %s missing", name)
		}
		var buf bytes.Buffer
		if err := runner(quick, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Registry["table1"](quick, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fedavg", "fedprox", "fednova", "tifl", "aergia", "++"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsNormalize(t *testing.T) {
	norm, err := (Options{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Seed != 1 || norm.Backend != "serial" || norm.Workers != 0 {
		t.Fatalf("normalized defaults = %+v", norm)
	}
	// The former parallel names are aliases of the two engines, and the
	// worker count selects nothing: whatever a caller still sends must land
	// on the serial twin's dedup key.
	for _, c := range []struct {
		in   Options
		want string
	}{
		{Options{Backend: "serial", Workers: 8}, "serial"},
		{Options{Backend: "parallel", Workers: 4}, "serial"},
		{Options{Backend: "parallel", Workers: -1}, "serial"},
		{Options{Backend: "parallel", Workers: 100_000_000}, "serial"},
		{Options{Backend: "serial32", Workers: 8}, "serial32"},
		{Options{Backend: "parallel32", Workers: 2}, "serial32"},
	} {
		norm, err := c.in.Normalize()
		if err != nil {
			t.Fatalf("%+v: %v", c.in, err)
		}
		if norm.Backend != c.want || norm.Workers != 0 {
			t.Fatalf("%+v normalized to backend %q workers %d, want %q and 0",
				c.in, norm.Backend, norm.Workers, c.want)
		}
	}
	if _, err := (Options{Backend: "quantum"}).Normalize(); err == nil {
		t.Fatal("unknown backend normalized")
	}
}

func TestOptionsNormalizeTransport(t *testing.T) {
	norm, err := (Options{}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// "" and "sim" collapse to "" so default records keep the
	// pre-transport schema (and job IDs) byte-identical.
	if norm.Transport != "" {
		t.Fatalf("default transport = %q, want \"\"", norm.Transport)
	}
	norm, err = (Options{Transport: "sim"}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Transport != "" {
		t.Fatalf("sim transport = %q, want \"\"", norm.Transport)
	}
	if _, err := (Options{Transport: "carrier-pigeon"}).Normalize(); err == nil {
		t.Fatal("unknown transport normalized")
	}
	if _, err := (Options{Transport: "tcp", TransportTimeout: -time.Second}).Normalize(); err == nil {
		t.Fatal("negative transport timeout normalized")
	}
	// The simulator ignores the timeout; it must not split the dedup key
	// of otherwise-identical sim runs.
	norm, err = (Options{Transport: "sim", TransportTimeout: 5 * time.Minute}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.TransportTimeout != 0 {
		t.Fatalf("sim transport timeout = %v, want 0", norm.TransportTimeout)
	}
	norm, err = (Options{Transport: "tcp", TransportTimeout: 5 * time.Minute}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Transport != "tcp" || norm.TransportTimeout != 5*time.Minute {
		t.Fatalf("tcp normalized = %+v", norm)
	}
}

// TestRunRecordDeterministic pins the property the result store's dedup
// and the -json byte-identity check rely on: the same (experiment,
// options) pair always marshals to the same bytes, and the record's
// renderer reproduces the legacy text report exactly.
func TestRunRecordDeterministic(t *testing.T) {
	for _, name := range []string{"fig4", "table1"} {
		a, err := Run(name, quick)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(name, quick)
		if err != nil {
			t.Fatal(err)
		}
		ab, err := a.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab, bb) {
			t.Fatalf("%s records diverged:\n%s\n%s", name, ab, bb)
		}
		var rendered, legacy bytes.Buffer
		if err := a.Render(&rendered); err != nil {
			t.Fatal(err)
		}
		if err := Registry[name](quick, &legacy); err != nil {
			t.Fatal(err)
		}
		if rendered.String() != legacy.String() {
			t.Fatalf("%s render diverged from registry runner", name)
		}
	}
	if _, err := Run("fig99", quick); err == nil {
		t.Fatal("unknown experiment ran")
	}
}

func TestArchForCoversKinds(t *testing.T) {
	tests := map[dataset.Kind]nn.Arch{
		dataset.MNIST:   nn.ArchMNISTSmall,
		dataset.FMNIST:  nn.ArchFMNISTSmall,
		dataset.Cifar10: nn.ArchCifar10Small,
	}
	for kind, want := range tests {
		if got := archFor(kind); got != want {
			t.Fatalf("archFor(%s) = %s, want %s", kind, got, want)
		}
	}
}

// TestOptionsNormalizeHier pins the scale-out record contract: the inert
// sampling fraction 1.0 collapses to the flat zero value, out-of-range
// values are rejected, and the zero value is omitted from the JSON encoding
// entirely, so pre-hier records (and the content-hash job IDs derived from
// them) stay byte-identical.
func TestOptionsNormalizeHier(t *testing.T) {
	norm, err := (Options{Hier: hier.Options{Sample: 1}}).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if !norm.Hier.IsZero() {
		t.Fatalf("inert sample normalized to %+v, want the zero value", norm.Hier)
	}
	if _, err := (Options{Hier: hier.Options{Sample: 1.5}}).Normalize(); err == nil {
		t.Fatal("out-of-range sampling fraction normalized")
	}
	if _, err := (Options{Hier: hier.Options{Tiers: -1}}).Normalize(); err == nil {
		t.Fatal("negative tier count normalized")
	}
	flat, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(flat, []byte("hier")) {
		t.Fatalf("zero hier options leaked into the encoding: %s", flat)
	}
	pre, err := json.Marshal(mustNormalize(t, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat, pre) {
		t.Fatalf("inert-hier encoding diverged from the pre-hier schema:\n%s\n%s", flat, pre)
	}
	enabled, err := json.Marshal(Options{Hier: hier.Options{Sample: 0.25, Tiers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(enabled, []byte(`"hier":{"sample":0.25,"tiers":4}`)) {
		t.Fatalf("enabled hier options missing from the encoding: %s", enabled)
	}
}
