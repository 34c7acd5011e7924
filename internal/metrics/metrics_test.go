package metrics

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-9 {
		t.Fatalf("std = %v", s.Std)
	}
}

// TestSummarizeOffsetVariance is a regression test for catastrophic
// cancellation: with samples at a large offset (1e8) and small spread,
// the old one-pass E[x^2]-mean^2 variance lost every significant digit
// and reported Std = 0. The two-pass form must keep full precision.
func TestSummarizeOffsetVariance(t *testing.T) {
	const offset = 1e8
	noise := []float64{-2, -1, 0, 1, 2} // variance 2, std sqrt(2)
	xs := make([]float64, len(noise))
	for i, v := range noise {
		xs[i] = offset + v
	}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean-offset) > 1e-6 {
		t.Fatalf("mean = %v, want %v", s.Mean, offset)
	}
	want := math.Sqrt(2)
	if math.Abs(s.Std-want) > 1e-9 {
		t.Fatalf("std = %v, want %v (catastrophic cancellation?)", s.Std, want)
	}

	// A constant sample stays exactly zero, not a small negative sqrt'd.
	s, err = Summarize([]float64{offset, offset, offset})
	if err != nil {
		t.Fatal(err)
	}
	if s.Std != 0 {
		t.Fatalf("constant-sample std = %v, want 0", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{0, 10, 20, 30, 40}
	tests := []struct {
		q, want float64
	}{
		{0, 0}, {1, 40}, {0.5, 20}, {0.25, 10}, {0.125, 5},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); math.Abs(got-tt.want) > 1e-12 {
			t.Fatalf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestDurationsToSeconds(t *testing.T) {
	xs := DurationsToSeconds([]time.Duration{time.Second, 500 * time.Millisecond})
	if xs[0] != 1 || xs[1] != 0.5 {
		t.Fatalf("seconds = %v", xs)
	}
}

func TestEstimateDensityPeakNearMode(t *testing.T) {
	// Bimodal sample; the highest peak should be near the heavier mode.
	var sample []float64
	for i := 0; i < 100; i++ {
		sample = append(sample, 10+0.1*float64(i%5))
	}
	for i := 0; i < 20; i++ {
		sample = append(sample, 30+0.1*float64(i%5))
	}
	d, err := EstimateDensity(sample, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	peak := d.Peak()
	if peak < 9 || peak > 12 {
		t.Fatalf("peak = %v, want near 10", peak)
	}
	// Density integrates to roughly 1.
	var integral float64
	for i := 1; i < len(d.Xs); i++ {
		integral += (d.Xs[i] - d.Xs[i-1]) * (d.Ys[i] + d.Ys[i-1]) / 2
	}
	if math.Abs(integral-1) > 0.05 {
		t.Fatalf("density integral = %v", integral)
	}
}

func TestEstimateDensityEmpty(t *testing.T) {
	if _, err := EstimateDensity(nil, 10, 0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
}

func TestEstimateDensityConstantSample(t *testing.T) {
	d, err := EstimateDensity([]float64{5, 5, 5}, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range d.Ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			t.Fatal("degenerate density produced NaN/Inf")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value", "time")
	tbl.AddRow("alpha", 1.5, 2*time.Second)
	tbl.AddRow("beta-long-name", 0.25, 500*time.Millisecond)
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[2], "alpha") {
		t.Fatalf("table content:\n%s", out)
	}
	if !strings.Contains(out, "2.00s") {
		t.Fatalf("duration formatting missing:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("name", "note")
	tbl.AddRow("a", "plain")
	tbl.AddRow("b", `has "quotes", and commas`)
	out := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "name,note" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[2] != `b,"has ""quotes"", and commas"` {
		t.Fatalf("quoted row = %q", lines[2])
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline runes = %q", s)
	}
	if Sparkline(nil) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	flat := Sparkline([]float64{2, 2, 2})
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

// CSV renders the table as RFC-4180-ish comma-separated values (cells are
// quoted when they contain commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(cell, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
