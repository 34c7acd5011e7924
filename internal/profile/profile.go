// Package profile implements the online profiler that Aergia clients run
// during the first local batch updates of a round (§4.2). The profiler
// records the duration of each of the four training phases per batch and
// produces the report the federator's scheduler consumes. Profiling adds a
// small per-batch overhead, which the report accounts for so experiments
// can reproduce the paper's overhead claims (≤ ~0.6% of training time).
package profile

import (
	"errors"
	"fmt"
	"time"

	"aergia/internal/comm"
)

// DefaultOverheadFraction is the relative cost the active profiler adds to
// each profiled batch. The paper measures 0.22% ± 0.09 on average.
const DefaultOverheadFraction = 0.0022

// ErrNoSamples is returned when a report is requested before any batch was
// recorded.
var ErrNoSamples = errors.New("profile: no batches recorded")

// Profiler accumulates per-phase durations over the profiled batches of a
// round.
type Profiler struct {
	overhead float64

	batches int
	ff, fc  time.Duration
	bc, bf  time.Duration
}

// New returns a profiler with the given per-batch overhead fraction;
// a negative value selects DefaultOverheadFraction.
func New(overheadFraction float64) *Profiler {
	if overheadFraction < 0 {
		overheadFraction = DefaultOverheadFraction
	}
	return &Profiler{overhead: overheadFraction}
}

// RecordBatch adds one batch's phase durations.
func (p *Profiler) RecordBatch(ff, fc, bc, bf time.Duration) {
	p.batches++
	p.ff += ff
	p.fc += fc
	p.bc += bc
	p.bf += bf
}

// Batches returns the number of recorded batches.
func (p *Profiler) Batches() int { return p.batches }

// Overhead returns the extra time the profiler itself consumed while
// recording, modelled as a fraction of the profiled compute.
func (p *Profiler) Overhead() time.Duration {
	total := p.ff + p.fc + p.bc + p.bf
	return time.Duration(float64(total) * p.overhead)
}

// Report is the per-client profiling summary sent to the federator.
type Report struct {
	ClientID comm.NodeID `json:"clientId"`
	Round    int         `json:"round"`
	Batches  int         `json:"batches"`
	// Mean per-batch phase durations.
	FF time.Duration `json:"ffNanos"`
	FC time.Duration `json:"fcNanos"`
	BC time.Duration `json:"bcNanos"`
	BF time.Duration `json:"bfNanos"`
	// Remaining is the client's remaining local updates this round (ru_j
	// in Algorithm 1).
	Remaining int `json:"remaining"`
}

// Report summarizes the recorded batches.
func (p *Profiler) Report(clientID comm.NodeID, round, remaining int) (Report, error) {
	if p.batches == 0 {
		return Report{}, ErrNoSamples
	}
	n := time.Duration(p.batches)
	return Report{
		ClientID:  clientID,
		Round:     round,
		Batches:   p.batches,
		FF:        p.ff / n,
		FC:        p.fc / n,
		BC:        p.bc / n,
		BF:        p.bf / n,
		Remaining: remaining,
	}, nil
}

// Reset clears the profiler for the next round.
func (p *Profiler) Reset() {
	p.batches = 0
	p.ff, p.fc, p.bc, p.bf = 0, 0, 0, 0
}

// Tasks123 returns the per-batch duration of the phases that always stay
// local (ff + fc + bc), t_{j,{1,2,3}} in Algorithm 1.
func (r Report) Tasks123() time.Duration { return r.FF + r.FC + r.BC }

// Task4 returns the per-batch duration of the offloadable bf phase,
// t_{j,4} in Algorithm 1.
func (r Report) Task4() time.Duration { return r.BF }

// FullBatch returns the per-batch duration of a complete training cycle.
func (r Report) FullBatch() time.Duration { return r.Tasks123() + r.Task4() }

// Validate checks internal consistency of a received report.
func (r Report) Validate() error {
	if r.Batches <= 0 {
		return fmt.Errorf("profile: report with %d batches", r.Batches)
	}
	if r.FF < 0 || r.FC < 0 || r.BC < 0 || r.BF < 0 {
		return errors.New("profile: negative phase duration")
	}
	if r.Remaining < 0 {
		return fmt.Errorf("profile: negative remaining updates %d", r.Remaining)
	}
	return nil
}
