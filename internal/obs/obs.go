// Package obs is the unified observability layer: a zero-dependency
// metrics registry — counters, gauges, and histograms, plain or as labeled
// families — with Prometheus text-format exposition (see expose.go) and an
// metrics interceptor for the comm stack (see transport.go).
//
// The registry is passive: instruments record with single atomic operations
// and never block, reorder, or delay the code they observe, so an
// instrumented run is bit-identical to an uninstrumented one (the golden
// parity tests run fully instrumented). Every method is nil-receiver safe —
// like trace.Log.Record — so call sites need no guards and code under test
// can run without a registry.
//
// Naming follows the Prometheus conventions documented in DESIGN.md §10:
// `aergia_<subsystem>_<metric>[_<unit>][_total]`, e.g.
// `aergia_bandwidth_bytes_total{class="update"}` or
// `aergia_round_duration_seconds`.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry. The always-on instrumentation (fl
// engines, bandwidth ledger, runner queue) registers here, and aergiad's
// GET /metrics and the CLI's -metrics-out expose it.
var Default = NewRegistry()

// metricType enumerates the exposition types.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// Registry holds named metric families. Registration is idempotent: asking
// twice for the same (name, type, labels) returns the same family, so
// package-level instruments can be built lazily from several call sites.
// Re-registering a name as a different type or label set panics — that is a
// programming error the first scrape would otherwise hide.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric family: its metadata plus the label-keyed
// children.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string

	mu       sync.Mutex
	children map[string]any // joined label values -> *Counter/*Gauge/*Histogram
	order    []string       // registration order of children keys
	fn       func() float64 // gauge callback (GaugeFunc), nil otherwise
	buckets  []float64      // histogram upper bounds
}

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		letter := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register resolves or creates a family, enforcing the idempotency
// contract.
func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q for metric %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v (was %s%v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		children: make(map[string]any),
		buckets:  buckets,
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// child resolves or creates the instrument at one label-value tuple.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// ---------------------------------------------------------------------------
// Counter.

// Counter is a monotonically increasing value. The zero value is usable;
// nil counters no-op. Add with a negative delta panics — a decreasing
// counter corrupts every rate() computed over it.
type Counter struct {
	bits atomic.Uint64 // float64 bits, CAS-updated
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (v must be >= 0).
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 {
		panic(fmt.Sprintf("obs: counter add of negative %v", v))
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter at the given label values, creating it on first
// use. Hot paths should resolve children once and hold them.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// ---------------------------------------------------------------------------
// Gauge.

// Gauge is a value that can go up and down. The zero value is usable; nil
// gauges no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v (negative deltas decrease the gauge).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge at the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil || v.f == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// ---------------------------------------------------------------------------
// Histogram.

// DefBuckets are general-purpose latency buckets in seconds, covering the
// microsecond handler times of the sim transport up to multi-minute rounds.
var DefBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300,
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram counts observations into fixed cumulative buckets. Observe is
// lock-free: one atomic add on the matching bucket, the count, and the sum.
// Nil histograms no-op.
type Histogram struct {
	upper  []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

func newHistogram(buckets []float64) *Histogram {
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper))}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Buckets are cumulative at exposition; here each sample lands in its
	// first covering bucket only.
	for i, ub := range h.upper {
		if v <= ub {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	addFloat(&h.sum, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram at the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || v.f == nil {
		return nil
	}
	f := v.f
	return f.child(values, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// ---------------------------------------------------------------------------
// Registration surface.

// Counter registers (or resolves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.register(name, help, typeCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or resolves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.register(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or resolves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.register(name, help, typeGauge, nil, nil)
	if f.fn != nil {
		panic(fmt.Sprintf("obs: metric %s already registered as a gauge func", name))
	}
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or resolves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.register(name, help, typeGauge, labels, nil)}
}

// Histogram registers (or resolves) an unlabeled histogram with the given
// bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.register(name, help, typeHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers (or resolves) a labeled histogram family with the
// given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels, buckets)}
}
