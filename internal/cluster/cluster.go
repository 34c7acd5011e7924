// Package cluster models heterogeneous client resources: per-client CPU
// speed fractions (the paper throttles Docker containers to 0.1–1.0 of a
// core, §5.1) and the cost model that converts the network's per-phase FLOP
// counts into virtual training durations.
package cluster

import (
	"fmt"
	"math"
	"time"

	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// Spec describes one client's resources.
type Spec struct {
	// Speed is the CPU fraction in (0,1]; 1.0 is a full reference core.
	Speed float64
	// Samples is the local dataset size (set by the experiment harness).
	Samples int
}

// CostModel converts FLOPs to durations for a reference core.
type CostModel struct {
	// FLOPSPerSecond is the throughput of a speed-1.0 client. The default
	// (2e7) models edge-device-grade cores so the scaled-down networks
	// yield paper-like round durations (seconds to tens of seconds).
	FLOPSPerSecond float64
}

// DefaultCostModel matches the reference throughput used in EXPERIMENTS.md.
func DefaultCostModel() CostModel { return CostModel{FLOPSPerSecond: 2e7} }

// PhaseDurations converts a per-sample PhaseCost into per-batch durations
// for a client with the given speed.
func (c CostModel) PhaseDurations(cost nn.PhaseCost, batchSize int, speed float64) (ff, fc, bc, bf time.Duration, err error) {
	if speed <= 0 || speed > 1 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: speed %v outside (0,1]", speed)
	}
	if batchSize <= 0 {
		return 0, 0, 0, 0, fmt.Errorf("cluster: batch size %d", batchSize)
	}
	flops := c.FLOPSPerSecond
	if flops <= 0 {
		flops = DefaultCostModel().FLOPSPerSecond
	}
	scale := float64(batchSize) / (flops * speed)
	toDur := func(f float64) time.Duration {
		return time.Duration(f * scale * float64(time.Second))
	}
	return toDur(cost.FF), toDur(cost.FC), toDur(cost.BC), toDur(cost.BF), nil
}

// BatchDuration returns the duration of one full training batch
// (all four phases) for a client with the given speed.
func (c CostModel) BatchDuration(cost nn.PhaseCost, batchSize int, speed float64) (time.Duration, error) {
	ff, fc, bc, bf, err := c.PhaseDurations(cost, batchSize, speed)
	if err != nil {
		return 0, err
	}
	return ff + fc + bc + bf, nil
}

// FrozenBatchDuration returns the duration of one batch with frozen feature
// layers (bf skipped).
func (c CostModel) FrozenBatchDuration(cost nn.PhaseCost, batchSize int, speed float64) (time.Duration, error) {
	ff, fc, bc, _, err := c.PhaseDurations(cost, batchSize, speed)
	if err != nil {
		return 0, err
	}
	return ff + fc + bc, nil
}

// UniformSpeeds draws n speeds uniformly from [0.1, 1.0], the paper's
// heterogeneous resource setup (§5.1).
func UniformSpeeds(n int, rng *tensor.RNG) []float64 {
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 0.1 + 0.9*rng.Float64()
	}
	return speeds
}

// SpeedsWithVariance draws n speeds with the given mean and variance,
// clipped to [0.1, 1.0] — the same floor the paper's Docker throttling
// uses. It reproduces the Figure 1(a) sweep, where the mean capacity is
// fixed (0.5 CPU) and the variance between clients grows.
func SpeedsWithVariance(n int, mean, variance float64, rng *tensor.RNG) []float64 {
	std := math.Sqrt(variance)
	speeds := make([]float64, n)
	for i := range speeds {
		s := mean + std*rng.NormFloat64()
		if s < 0.1 {
			s = 0.1
		}
		if s > 1 {
			s = 1
		}
		speeds[i] = s
	}
	return speeds
}
