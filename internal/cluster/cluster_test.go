package cluster

import (
	"math"
	"testing"
	"time"

	"aergia/internal/nn"
	"aergia/internal/tensor"
)

func TestPhaseDurationsScaleWithSpeed(t *testing.T) {
	cm := DefaultCostModel()
	cost := nn.PhaseCost{FF: 1e6, FC: 1e5, BC: 2e5, BF: 2e6}
	fast, err := cm.BatchDuration(cost, 16, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := cm.BatchDuration(cost, 16, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(slow) / float64(fast)
	if math.Abs(ratio-4) > 0.01 {
		t.Fatalf("slow/fast = %v, want 4", ratio)
	}
}

func TestFrozenBatchCheaper(t *testing.T) {
	cm := DefaultCostModel()
	cost := nn.PhaseCost{FF: 1e6, FC: 1e5, BC: 2e5, BF: 2e6}
	full, err := cm.BatchDuration(cost, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	frozen, err := cm.FrozenBatchDuration(cost, 8, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if frozen >= full {
		t.Fatalf("frozen %v >= full %v", frozen, full)
	}
	// The saving must equal the bf share.
	wantSaving := float64(cost.BF) / cost.Total()
	gotSaving := float64(full-frozen) / float64(full)
	if math.Abs(wantSaving-gotSaving) > 0.01 {
		t.Fatalf("saving = %v, want %v", gotSaving, wantSaving)
	}
}

func TestPhaseDurationsValidation(t *testing.T) {
	cm := DefaultCostModel()
	cost := nn.PhaseCost{FF: 1}
	if _, err := cm.BatchDuration(cost, 8, 0); err == nil {
		t.Fatal("expected error for speed 0")
	}
	if _, err := cm.BatchDuration(cost, 8, 1.5); err == nil {
		t.Fatal("expected error for speed > 1")
	}
	if _, err := cm.BatchDuration(cost, 0, 0.5); err == nil {
		t.Fatal("expected error for batch size 0")
	}
}

func TestBatchDurationLinearInBatchSize(t *testing.T) {
	cm := DefaultCostModel()
	cost := nn.PhaseCost{FF: 1e6, FC: 1e5, BC: 2e5, BF: 2e6}
	b8, _ := cm.BatchDuration(cost, 8, 0.5)
	b16, _ := cm.BatchDuration(cost, 16, 0.5)
	if d := math.Abs(float64(b16)/float64(b8) - 2); d > 0.01 {
		t.Fatalf("batch-size scaling off by %v", d)
	}
}

func TestUniformSpeedsRange(t *testing.T) {
	rng := tensor.NewRNG(1)
	speeds := UniformSpeeds(1000, rng)
	for _, s := range speeds {
		if s < 0.1 || s > 1.0 {
			t.Fatalf("speed %v outside [0.1, 1.0]", s)
		}
	}
	// Mean should be near 0.55.
	var mean float64
	for _, s := range speeds {
		mean += s
	}
	mean /= float64(len(speeds))
	if math.Abs(mean-0.55) > 0.03 {
		t.Fatalf("mean speed = %v", mean)
	}
}

func TestSpeedsWithVariance(t *testing.T) {
	rng := tensor.NewRNG(2)
	zero := SpeedsWithVariance(100, 0.5, 0, rng)
	for _, s := range zero {
		if s != 0.5 {
			t.Fatalf("zero-variance speed = %v", s)
		}
	}
	spread := SpeedsWithVariance(2000, 0.5, 0.04, rng)
	v := SpeedVariance(spread)
	// Clipping shrinks variance slightly; accept a broad band.
	if v < 0.02 || v > 0.06 {
		t.Fatalf("variance = %v, want ≈0.04", v)
	}
	for _, s := range spread {
		if s < 0.1 || s > 1 {
			t.Fatalf("speed %v outside clip range", s)
		}
	}
}

func TestSpeedVarianceEmpty(t *testing.T) {
	if SpeedVariance(nil) != 0 {
		t.Fatal("variance of empty slice should be 0")
	}
}

func TestCostModelZeroFLOPSFallsBack(t *testing.T) {
	cm := CostModel{}
	cost := nn.PhaseCost{FF: 2e7}
	d, err := cm.BatchDuration(cost, 1, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d != time.Second {
		t.Fatalf("duration = %v, want 1s at default 2e7 FLOPS", d)
	}
}

// SpeedVariance returns the empirical variance of a speed vector.
func SpeedVariance(speeds []float64) float64 {
	if len(speeds) == 0 {
		return 0
	}
	var mean float64
	for _, s := range speeds {
		mean += s
	}
	mean /= float64(len(speeds))
	var v float64
	for _, s := range speeds {
		v += (s - mean) * (s - mean)
	}
	return v / float64(len(speeds))
}
