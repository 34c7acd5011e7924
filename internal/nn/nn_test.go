package nn

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"aergia/internal/tensor"
)

func TestReLUForwardBackward(t *testing.T) {
	l := NewReLU()
	x, _ := tensor.FromSlice([]float64{-1, 2, -3, 4}, 4)
	y, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 0, 4}
	for i, v := range y.Data() {
		if v != want[i] {
			t.Fatalf("relu[%d] = %v, want %v", i, v, want[i])
		}
	}
	gy, _ := tensor.FromSlice([]float64{1, 1, 1, 1}, 4)
	gx, err := l.Backward(gy)
	if err != nil {
		t.Fatal(err)
	}
	wantG := []float64{0, 1, 0, 1}
	for i, v := range gx.Data() {
		if v != wantG[i] {
			t.Fatalf("relu grad[%d] = %v, want %v", i, v, wantG[i])
		}
	}
}

func TestReLUBackwardBeforeForward(t *testing.T) {
	l := NewReLU()
	gy, _ := tensor.FromSlice([]float64{1}, 1)
	if _, err := l.Backward(gy); !errors.Is(err, ErrNoForward) {
		t.Fatalf("err = %v, want ErrNoForward", err)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	l := NewFlatten()
	x := tensor.MustNew(2, 3, 4)
	x.Data()[5] = 7
	y, err := l.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if y.Dims() != 1 || y.Size() != 24 {
		t.Fatalf("flatten shape = %v", y.Shape())
	}
	gx, err := l.Backward(y)
	if err != nil {
		t.Fatal(err)
	}
	if gx.Dims() != 3 || gx.At(0, 1, 1) != 7 {
		t.Fatalf("unflatten shape = %v", gx.Shape())
	}
}

// numericGradCheck verifies dL/dparam for a network computing
// L = sum(logits) via central differences.
func numericGradCheck(t *testing.T, net *Network, x *tensor.Tensor, probes int) {
	t.Helper()
	loss := func() float64 {
		y, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		return y.Sum()
	}
	out, err := net.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	net.ZeroGrads()
	gy := tensor.MustNew(out.Shape()...)
	gy.Fill(1)
	gb, err := net.BackwardClassifier(gy)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.BackwardFeatures(gb); err != nil {
		t.Fatal(err)
	}
	params := append(net.featureParams(), net.classifierParams()...)
	grads := append(net.featureGrads(), net.classifierGrads()...)
	rng := tensor.NewRNG(99)
	const eps = 1e-5
	for pi, p := range params {
		for probe := 0; probe < probes; probe++ {
			i := rng.Intn(p.Size())
			orig := p.Data()[i]
			p.Data()[i] = orig + eps
			up := loss()
			p.Data()[i] = orig - eps
			down := loss()
			p.Data()[i] = orig
			num := (up - down) / (2 * eps)
			got := grads[pi].Data()[i]
			if math.Abs(num-got) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("param %d idx %d: grad %v, numeric %v", pi, i, got, num)
			}
		}
	}
}

func TestDenseNumericGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	net, err := NewNetwork([]int{6},
		nil,
		[]Layer{NewDense(6, 4, rng), NewReLU(), NewDense(4, 3, rng)})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(6)
	x.FillNormal(rng, 1)
	numericGradCheck(t, net, x, 4)
}

func TestConvNetNumericGradient(t *testing.T) {
	rng := tensor.NewRNG(4)
	net, err := NewNetwork([]int{1, 8, 8},
		[]Layer{NewConv2D(1, 4, 3, 1, 1, rng), NewReLU(), NewMaxPool(2)},
		[]Layer{NewFlatten(), NewDense(4*4*4, 5, rng)})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(1, 8, 8)
	x.FillNormal(rng, 1)
	numericGradCheck(t, net, x, 3)
}

func TestResidualBlockNumericGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	net, err := NewNetwork([]int{2, 6, 6},
		[]Layer{NewResidualBlock(2, rng)},
		[]Layer{NewFlatten(), NewDense(2*6*6, 3, rng)})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustNew(2, 6, 6)
	x.FillNormal(rng, 0.5)
	numericGradCheck(t, net, x, 3)
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits, _ := tensor.FromSlice([]float64{2, 1, 0.1}, 3)
	loss, grad, err := SoftmaxCrossEntropy(logits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 || loss > 1 {
		t.Fatalf("loss = %v, want small positive", loss)
	}
	// Gradient sums to zero (softmax minus one-hot).
	if math.Abs(grad.Sum()) > 1e-12 {
		t.Fatalf("grad sum = %v, want 0", grad.Sum())
	}
	if grad.At(0) >= 0 {
		t.Fatalf("grad at true label = %v, want negative", grad.At(0))
	}
	if _, _, err := SoftmaxCrossEntropy(logits, 5); err == nil {
		t.Fatal("expected out-of-range label error")
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	logits, _ := tensor.FromSlice([]float64{1000, 999, 998}, 3)
	p := Softmax(logits)
	var sum float64
	for _, v := range p.Data() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax produced %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v", sum)
	}
}

// makeBlobs builds a trivially separable 2-class dataset of 1x4x4 images.
func makeBlobs(rng *tensor.RNG, n int) ([]*tensor.Tensor, []int) {
	xs := make([]*tensor.Tensor, n)
	ys := make([]int, n)
	for i := range xs {
		x := tensor.MustNew(1, 4, 4)
		x.FillNormal(rng, 0.3)
		label := i % 2
		if label == 0 {
			x.Data()[0] += 3 // strong corner signal for class 0
		} else {
			x.Data()[15] += 3
		}
		xs[i] = x
		ys[i] = label
	}
	return xs, ys
}

func TestNetworkLearnsSeparableTask(t *testing.T) {
	rng := tensor.NewRNG(11)
	net, err := NewNetwork([]int{1, 4, 4},
		[]Layer{NewConv2D(1, 4, 3, 1, 1, rng), NewReLU()},
		[]Layer{NewFlatten(), NewDense(4*4*4, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := makeBlobs(rng, 64)
	opt := NewSGD(0.1)
	var last float64
	for epoch := 0; epoch < 20; epoch++ {
		for i := 0; i < len(xs); i += 16 {
			loss, err := net.TrainBatch(xs[i:i+16], ys[i:i+16], opt)
			if err != nil {
				t.Fatal(err)
			}
			last = loss
		}
	}
	acc, err := net.Evaluate(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy = %v after training (last loss %v), want >= 0.95", acc, last)
	}
}

func TestFrozenFeaturesDoNotChange(t *testing.T) {
	rng := tensor.NewRNG(12)
	net, err := NewNetwork([]int{1, 4, 4},
		[]Layer{NewConv2D(1, 2, 3, 1, 1, rng), NewReLU()},
		[]Layer{NewFlatten(), NewDense(2*4*4, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	before := net.SnapshotWeights()
	net.SetFeaturesFrozen(true)
	xs, ys := makeBlobs(rng, 8)
	if _, err := net.TrainBatch(xs, ys, NewSGD(0.5)); err != nil {
		t.Fatal(err)
	}
	after := net.SnapshotWeights()
	for i := range before.Feature {
		if before.Feature[i] != after.Feature[i] {
			t.Fatal("frozen feature weights changed during training")
		}
	}
	changed := false
	for i := range before.Classifier {
		if before.Classifier[i] != after.Classifier[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("classifier weights did not change during frozen training")
	}
}

func TestBackwardFeaturesFrozenError(t *testing.T) {
	rng := tensor.NewRNG(13)
	net, _ := NewNetwork([]int{1, 4, 4},
		[]Layer{NewConv2D(1, 2, 3, 1, 1, rng)},
		[]Layer{NewFlatten(), NewDense(2*4*4, 2, rng)})
	net.SetFeaturesFrozen(true)
	g := tensor.MustNew(2, 4, 4)
	if err := net.BackwardFeatures(g); !errors.Is(err, ErrFrozen) {
		t.Fatalf("err = %v, want ErrFrozen", err)
	}
}

func TestWeightsSnapshotRoundTrip(t *testing.T) {
	net, err := Build(ArchMNISTCNN, 42)
	if err != nil {
		t.Fatal(err)
	}
	w := net.SnapshotWeights()
	net2, err := Build(ArchMNISTCNN, 7) // different init
	if err != nil {
		t.Fatal(err)
	}
	if err := net2.LoadWeights(w); err != nil {
		t.Fatal(err)
	}
	w2 := net2.SnapshotWeights()
	for i := range w.Feature {
		if w.Feature[i] != w2.Feature[i] {
			t.Fatal("feature weights round-trip mismatch")
		}
	}
	for i := range w.Classifier {
		if w.Classifier[i] != w2.Classifier[i] {
			t.Fatal("classifier weights round-trip mismatch")
		}
	}
}

func TestWeightsLoadSizeMismatch(t *testing.T) {
	net, _ := Build(ArchMNISTCNN, 42)
	bad := Weights{Feature: make([]float64, 3), Classifier: make([]float64, 3)}
	if err := net.LoadWeights(bad); !errors.Is(err, ErrWeightSize) {
		t.Fatalf("err = %v, want ErrWeightSize", err)
	}
}

func TestWeightsAxpyScale(t *testing.T) {
	a := Weights{Feature: []float64{1, 2}, Classifier: []float64{3}}
	b := Weights{Feature: []float64{10, 20}, Classifier: []float64{30}}
	if err := a.Axpy(0.5, b); err != nil {
		t.Fatal(err)
	}
	if a.Feature[0] != 6 || a.Feature[1] != 12 || a.Classifier[0] != 18 {
		t.Fatalf("axpy result %v", a)
	}
	a.Scale(2)
	if a.Feature[0] != 12 {
		t.Fatalf("scale result %v", a)
	}
	bad := Weights{Feature: []float64{1}}
	if err := a.Axpy(1, bad); !errors.Is(err, ErrWeightSize) {
		t.Fatalf("axpy mismatch err = %v", err)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(ArchCifar10CNN, 1234)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(ArchCifar10CNN, 1234)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.SnapshotWeights(), b.SnapshotWeights()
	for i := range wa.Feature {
		if wa.Feature[i] != wb.Feature[i] {
			t.Fatal("same-seed builds differ")
		}
	}
}

func TestBuildAllArchitectures(t *testing.T) {
	archs := []Arch{
		ArchMNISTCNN, ArchFMNISTCNN, ArchCifar10CNN,
		ArchCifar10ResNet, ArchCifar100VGG, ArchCifar100ResNet,
	}
	for _, a := range archs {
		t.Run(a.String(), func(t *testing.T) {
			net, err := Build(a, 1)
			if err != nil {
				t.Fatal(err)
			}
			out, err := net.OutShape()
			if err != nil {
				t.Fatal(err)
			}
			if out[0] != a.Classes() {
				t.Fatalf("output classes = %d, want %d", out[0], a.Classes())
			}
			x := tensor.MustNew(a.InShape()...)
			x.FillNormal(tensor.NewRNG(2), 1)
			logits, err := net.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			if logits.Size() != a.Classes() {
				t.Fatalf("logits size = %d", logits.Size())
			}
		})
	}
	if _, err := Build(Arch(99), 1); err == nil {
		t.Fatal("expected error for unknown architecture")
	}
}

// TestPhaseFLOPsBFDominates reproduces the structural claim behind
// Figure 4: the backward pass on feature layers dominates the cycle
// (52–75% in the paper) for every evaluated architecture.
func TestPhaseFLOPsBFDominates(t *testing.T) {
	archs := []Arch{
		ArchFMNISTCNN, ArchCifar10CNN, ArchCifar10ResNet,
		ArchCifar100VGG, ArchCifar100ResNet,
	}
	for _, a := range archs {
		t.Run(a.String(), func(t *testing.T) {
			net, err := Build(a, 1)
			if err != nil {
				t.Fatal(err)
			}
			cost, err := net.PhaseFLOPs()
			if err != nil {
				t.Fatal(err)
			}
			ff, fc, bc, bf := cost.Shares()
			if bf < 0.5 || bf > 0.8 {
				t.Fatalf("bf share = %.3f, want within [0.5, 0.8] (ff=%.3f fc=%.3f bc=%.3f)",
					bf, ff, fc, bc)
			}
			if bf <= ff || bf <= fc || bf <= bc {
				t.Fatal("bf is not the dominant phase")
			}
			if cost.FrozenTotal() >= cost.Total() {
				t.Fatal("freezing does not reduce the cycle cost")
			}
		})
	}
}

func TestSGDProximalPullsTowardGlobal(t *testing.T) {
	rng := tensor.NewRNG(21)
	net, err := NewNetwork([]int{2}, nil, []Layer{NewDense(2, 2, rng)})
	if err != nil {
		t.Fatal(err)
	}
	global := net.SnapshotWeights().Clone()
	// Perturb the network away from the global reference.
	w := net.SnapshotWeights()
	for i := range w.Classifier {
		w.Classifier[i] += 1
	}
	if err := net.LoadWeights(w); err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(0.1)
	opt.Mu = 1.0
	opt.SetGlobalReference(global)
	if err := opt.RegisterProximalLayout(net); err != nil {
		t.Fatal(err)
	}
	// Step with zero task gradient: only the proximal term acts.
	net.ZeroGrads()
	if err := opt.Step(net.classifierParams(), net.classifierGrads()); err != nil {
		t.Fatal(err)
	}
	after := net.SnapshotWeights()
	for i := range after.Classifier {
		distBefore := math.Abs(w.Classifier[i] - global.Classifier[i])
		distAfter := math.Abs(after.Classifier[i] - global.Classifier[i])
		if distAfter >= distBefore {
			t.Fatalf("proximal term did not pull weight %d toward global", i)
		}
	}
}

func TestSGDProximalWithoutLayout(t *testing.T) {
	rng := tensor.NewRNG(22)
	net, _ := NewNetwork([]int{2}, nil, []Layer{NewDense(2, 2, rng)})
	opt := NewSGD(0.1)
	opt.Mu = 0.5
	opt.SetGlobalReference(net.SnapshotWeights())
	net.ZeroGrads()
	err := opt.Step(net.classifierParams(), net.classifierGrads())
	if err == nil {
		t.Fatal("expected error without RegisterProximalLayout")
	}
}

func TestSGDMomentumAccelerates(t *testing.T) {
	// With a constant gradient, momentum must accumulate larger steps.
	p := tensor.MustNew(1)
	g := tensor.MustNew(1)
	g.Fill(1)
	plain := NewSGD(0.1)
	if err := plain.Step([]*tensor.Tensor{p}, []*tensor.Tensor{g}); err != nil {
		t.Fatal(err)
	}
	firstStep := -p.At(0)

	p2 := tensor.MustNew(1)
	mom := NewSGD(0.1)
	mom.Momentum = 0.9
	for i := 0; i < 5; i++ {
		g.Fill(1)
		if err := mom.Step([]*tensor.Tensor{p2}, []*tensor.Tensor{g}); err != nil {
			t.Fatal(err)
		}
	}
	if -p2.At(0) <= 5*firstStep {
		t.Fatalf("momentum displacement %v not larger than plain %v", -p2.At(0), 5*firstStep)
	}
}

func TestTrainBatchValidation(t *testing.T) {
	net, _ := Build(ArchMNISTCNN, 1)
	if _, err := net.TrainBatch(nil, nil, NewSGD(0.1)); err == nil {
		t.Fatal("expected error for empty batch")
	}
	x := tensor.MustNew(1, 28, 28)
	if _, err := net.TrainBatch([]*tensor.Tensor{x}, []int{0, 1}, NewSGD(0.1)); err == nil {
		t.Fatal("expected error for mismatched labels")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	net, _ := Build(ArchMNISTCNN, 1)
	if _, err := net.Evaluate(nil, nil); err == nil {
		t.Fatal("expected error for empty evaluation set")
	}
}

// NewConv2D returns a convolution layer with He-initialized weights.
func NewConv2D(inC, outC, kernel, pad, stride int, rng *tensor.RNG) *Conv2DLayer {
	return initParams{rng: rng}.conv(inC, outC, kernel, pad, stride)
}

// NewDense returns a dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *tensor.RNG) *DenseLayer {
	return initParams{rng: rng}.dense(in, out)
}

// NewResidualBlock returns a residual block over `channels` feature maps
// with 3×3 kernels and same-padding. The first conv+relu pair is fused at
// construction: relu1 is kept only for the FLOP cost model (so phase costs
// are unchanged) while conv1 applies the activation inside its kernels.
// relu2 cannot fuse because the skip connection adds into conv2's output
// before the activation.
func NewResidualBlock(channels int, rng *tensor.RNG) *ResidualBlock {
	return initParams{rng: rng}.residual(channels)
}

// SoftmaxCrossEntropy computes the cross-entropy loss of logits against an
// integer label and the gradient of the loss with respect to the logits.
// The gradient tensor has the logits' element type. Training loops should
// prefer Network.TrainBatch, which reuses a loss workspace instead of
// allocating per call.
func SoftmaxCrossEntropy(logits *tensor.Tensor, label int) (loss float64, grad *tensor.Tensor, err error) {
	if logits.Dims() != 1 {
		return 0, nil, fmt.Errorf("nn: loss expects 1-D logits, got %v", logits.Shape())
	}
	n := logits.Size()
	if label < 0 || label >= n {
		return 0, nil, fmt.Errorf("nn: label %d out of range [0,%d)", label, n)
	}
	d := make([]float64, n)
	logits.CopyToF64(d)
	gd := make([]float64, n)
	loss = softmaxXEntInto(d, label, gd)
	grad = tensor.MustNewOf(logits.DType(), n)
	grad.CopyFromF64(gd)
	return loss, grad, nil
}

// Softmax returns the softmax probabilities of the logits as a float64
// tensor.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	d := make([]float64, logits.Size())
	logits.CopyToF64(d)
	maxv := d[0]
	for _, v := range d {
		if v > maxv {
			maxv = v
		}
	}
	out := tensor.MustNew(logits.Size())
	od := out.Data()
	var sum float64
	for i, v := range d {
		od[i] = math.Exp(v - maxv)
		sum += od[i]
	}
	for i := range od {
		od[i] /= sum
	}
	return out
}

// FrozenTotal returns the FLOPs of a cycle with frozen feature layers,
// which skips the bf phase.
func (p PhaseCost) FrozenTotal() float64 { return p.FF + p.FC + p.BC }
