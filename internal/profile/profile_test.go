package profile

import (
	"errors"
	"testing"
	"time"
)

func TestProfilerReportMeans(t *testing.T) {
	p := New(0)
	for i := 0; i < 4; i++ {
		p.RecordBatch(100*time.Millisecond, 10*time.Millisecond,
			20*time.Millisecond, 200*time.Millisecond)
	}
	r, err := p.Report(3, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r.ClientID != 3 || r.Round != 7 || r.Batches != 4 || r.Remaining != 50 {
		t.Fatalf("report metadata = %+v", r)
	}
	if r.FF != 100*time.Millisecond || r.BF != 200*time.Millisecond {
		t.Fatalf("means = %+v", r)
	}
	if r.Tasks123() != 130*time.Millisecond {
		t.Fatalf("Tasks123 = %v", r.Tasks123())
	}
	if r.Task4() != 200*time.Millisecond {
		t.Fatalf("Task4 = %v", r.Task4())
	}
	if r.FullBatch() != 330*time.Millisecond {
		t.Fatalf("FullBatch = %v", r.FullBatch())
	}
	if r.ExpectedRemaining() != 50*330*time.Millisecond {
		t.Fatalf("ExpectedRemaining = %v", r.ExpectedRemaining())
	}
}

func TestProfilerEmptyReport(t *testing.T) {
	p := New(0)
	if _, err := p.Report(1, 0, 10); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v, want ErrNoSamples", err)
	}
}

func TestProfilerReset(t *testing.T) {
	p := New(0)
	p.RecordBatch(time.Millisecond, time.Millisecond, time.Millisecond, time.Millisecond)
	p.Reset()
	if p.Batches() != 0 {
		t.Fatalf("batches after reset = %d", p.Batches())
	}
	if _, err := p.Report(1, 0, 10); !errors.Is(err, ErrNoSamples) {
		t.Fatal("report after reset should fail")
	}
}

func TestProfilerOverheadAccounting(t *testing.T) {
	p := New(-1) // default fraction
	total := time.Duration(0)
	for i := 0; i < 100; i++ {
		p.RecordBatch(10*time.Millisecond, time.Millisecond,
			2*time.Millisecond, 20*time.Millisecond)
		total += 33 * time.Millisecond
	}
	oh := p.Overhead()
	frac := float64(oh) / float64(total)
	// The paper reports 0.22% ± 0.09 profiler overhead; our model matches.
	if frac < 0.001 || frac > 0.004 {
		t.Fatalf("overhead fraction = %v, want ≈0.0022", frac)
	}
}

func TestReportValidate(t *testing.T) {
	good := Report{Batches: 10, FF: 1, FC: 1, BC: 1, BF: 1, Remaining: 5}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	tests := []Report{
		{Batches: 0, Remaining: 1},
		{Batches: 1, FF: -1, Remaining: 1},
		{Batches: 1, Remaining: -1},
	}
	for i, r := range tests {
		if err := r.Validate(); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}

// ExpectedRemaining returns the projected time to finish the remaining
// local updates at the profiled speed.
func (r Report) ExpectedRemaining() time.Duration {
	return time.Duration(r.Remaining) * r.FullBatch()
}
