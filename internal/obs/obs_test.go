package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	// Idempotent re-registration resolves the same instrument.
	if again := r.Counter("test_ops_total", "ops"); again != c {
		t.Fatalf("re-registration returned a different counter")
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("test_total", "t").Add(-1)
}

func TestVecChildrenAreCachedPerLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_bytes_total", "bytes", "class", "dir")
	a := v.With("update", "sent")
	b := v.With("update", "sent")
	if a != b {
		t.Fatalf("same labels resolved different children")
	}
	a.Add(5)
	v.With("update", "delivered").Add(3)
	if got := v.With("update", "sent").Value(); got != 5 {
		t.Fatalf("child value = %v, want 5", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %v, want 56.05", h.Sum())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x_total", "x").Inc()
	r.CounterVec("y_total", "y", "l").With("v").Add(1)
	r.Gauge("g", "g").Set(1)
	r.GaugeVec("gv", "g", "l").With("v").Inc()
	r.GaugeFunc("gf", "g", func() float64 { return 1 })
	r.Histogram("h", "h", nil).Observe(1)
	r.HistogramVec("hv", "h", nil, "l").With("v").Observe(1)
	if err := r.WriteText(nil); err != nil {
		t.Fatalf("nil registry WriteText: %v", err)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	for _, name := range []string{"", "7up", "has space", "bad-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q did not panic", name)
				}
			}()
			NewRegistry().Counter(name, "help")
		}()
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_metric", "help")
	defer func() {
		if recover() == nil {
			t.Fatalf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("test_metric", "help")
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("aergia_test_bytes_total", "bytes moved", "class").With("update").Add(42)
	r.Gauge("aergia_test_depth", "queue depth").Set(3)
	r.GaugeFunc("aergia_test_live", "live value", func() float64 { return 1.5 })
	h := r.Histogram("aergia_test_seconds", "latency", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP aergia_test_bytes_total bytes moved\n",
		"# TYPE aergia_test_bytes_total counter\n",
		`aergia_test_bytes_total{class="update"} 42` + "\n",
		"# TYPE aergia_test_depth gauge\n",
		"aergia_test_depth 3\n",
		"aergia_test_live 1.5\n",
		"# TYPE aergia_test_seconds histogram\n",
		`aergia_test_seconds_bucket{le="1"} 1` + "\n",
		`aergia_test_seconds_bucket{le="2"} 2` + "\n",
		`aergia_test_seconds_bucket{le="+Inf"} 3` + "\n",
		"aergia_test_seconds_sum 11\n",
		"aergia_test_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must come out name-sorted for deterministic scrapes.
	if strings.Index(out, "aergia_test_bytes_total") > strings.Index(out, "aergia_test_depth") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_total", "t", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `test_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped sample %q missing from:\n%s", want, b.String())
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentInstruments exercises the atomic hot paths and lazy child
// registration under the race detector.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("test_conc_total", "t", "worker")
	h := r.Histogram("test_conc_seconds", "t", nil)
	g := r.Gauge("test_conc_depth", "t")
	var wg sync.WaitGroup
	const workers, iters = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < iters; i++ {
				vec.With(name).Inc()
				h.Observe(float64(i))
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Errorf("concurrent WriteText: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	var total float64
	for w := 0; w < workers; w++ {
		total += vec.With(string(rune('a' + w))).Value()
	}
	if total != workers*iters {
		t.Fatalf("counter total = %v, want %d", total, workers*iters)
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*iters)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %v, want 0", g.Value())
	}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time —
// the natural shape for "current depth of that queue over there". The
// callback must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.register(name, help, typeGauge, nil, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fn != nil || len(f.children) > 0 {
		panic(fmt.Sprintf("obs: gauge func %s already registered", name))
	}
	f.fn = fn
}
