// Package metrics provides the statistics and formatting helpers the
// benchmark harness uses to regenerate the paper's tables and figures:
// summary statistics, histogram/kernel density estimates (Figure 8), and
// aligned text tables/series.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// ErrEmpty is returned for statistics over empty samples.
var ErrEmpty = errors.New("metrics: empty sample")

// Summary holds the descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	Max    float64
}

// Summarize computes descriptive statistics.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	n := float64(len(sorted))
	mean := sum / n
	// Two-pass variance: E[(x-mean)^2]. The one-pass E[x^2]-mean^2 form
	// cancels catastrophically when the spread is tiny relative to the
	// magnitude (e.g. wall-clock timestamps), collapsing Std to 0.
	var sq float64
	for _, v := range sorted {
		d := v - mean
		sq += d * d
	}
	variance := sq / n
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(sorted),
		Mean:   mean,
		Std:    math.Sqrt(variance),
		Min:    sorted[0],
		P25:    Quantile(sorted, 0.25),
		Median: Quantile(sorted, 0.5),
		P75:    Quantile(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}, nil
}

// Quantile returns the q-quantile of a sorted sample using linear
// interpolation.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// DurationsToSeconds converts durations to float seconds.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// Density is a Gaussian kernel density estimate over a fixed grid, the
// tool behind the paper's Figure 8 (density of round durations).
type Density struct {
	Xs []float64 `json:"xs"`
	Ys []float64 `json:"ys"`
}

// EstimateDensity computes a Gaussian KDE over `points` grid positions
// spanning [min, max] of the sample (with 10% margins). Bandwidth uses
// Silverman's rule of thumb; a non-positive override uses the rule.
func EstimateDensity(sample []float64, points int, bandwidth float64) (Density, error) {
	if len(sample) == 0 {
		return Density{}, ErrEmpty
	}
	if points <= 1 {
		points = 64
	}
	s, err := Summarize(sample)
	if err != nil {
		return Density{}, err
	}
	if bandwidth <= 0 {
		bandwidth = 1.06 * s.Std * math.Pow(float64(s.N), -0.2)
		if bandwidth <= 0 {
			bandwidth = 1e-9 + (s.Max-s.Min)/float64(points)
		}
		if bandwidth == 0 {
			bandwidth = 1
		}
	}
	span := s.Max - s.Min
	lo := s.Min - 0.1*span - 3*bandwidth
	hi := s.Max + 0.1*span + 3*bandwidth
	if hi <= lo {
		hi = lo + 1
	}
	d := Density{
		Xs: make([]float64, points),
		Ys: make([]float64, points),
	}
	step := (hi - lo) / float64(points-1)
	norm := 1 / (float64(len(sample)) * bandwidth * math.Sqrt(2*math.Pi))
	for i := 0; i < points; i++ {
		x := lo + float64(i)*step
		var y float64
		for _, v := range sample {
			z := (x - v) / bandwidth
			y += math.Exp(-0.5 * z * z)
		}
		d.Xs[i] = x
		d.Ys[i] = y * norm
	}
	return d, nil
}

// Peak returns the grid position with maximum density.
func (d Density) Peak() float64 {
	best := 0
	for i, y := range d.Ys {
		if y > d.Ys[best] {
			best = i
		}
	}
	if len(d.Xs) == 0 {
		return math.NaN()
	}
	return d.Xs[best]
}

// Table formats aligned rows for terminal output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; values are formatted with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case time.Duration:
			row[i] = fmt.Sprintf("%.2fs", x.Seconds())
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Sparkline renders values as a compact unicode bar series, handy for
// printing figure-like series in terminal output.
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := xs[0], xs[0]
	for _, v := range xs {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range xs {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(len(blocks)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(blocks) {
			idx = len(blocks) - 1
		}
		b.WriteRune(blocks[idx])
	}
	return b.String()
}
