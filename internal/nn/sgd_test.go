package nn

import "testing"

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	net, _ := Build(ArchMNISTSmall, 3)
	before := net.SnapshotWeights()
	opt := NewSGD(0.1)
	opt.WeightDecay = 0.5
	net.ZeroGrads()
	// Zero task gradient: only the decay acts.
	if err := opt.Step(net.classifierParams(), net.classifierGrads()); err != nil {
		t.Fatal(err)
	}
	after := net.SnapshotWeights()
	for i := range after.Classifier {
		if before.Classifier[i] == 0 {
			continue
		}
		ratio := after.Classifier[i] / before.Classifier[i]
		if ratio < 0.94 || ratio > 0.96 {
			t.Fatalf("decay ratio = %v, want 0.95", ratio)
		}
	}
}
