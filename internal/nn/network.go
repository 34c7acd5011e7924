package nn

import (
	"errors"
	"fmt"

	"aergia/internal/tensor"
)

// Network is a CNN classifier split into two sections, mirroring the paper's
// decomposition: the feature section (convolutional layers) and the
// classifier section (fully connected layers). A local training step then
// consists of four phases:
//
//	ff — forward pass through the feature section
//	fc — forward pass through the classifier section
//	bc — backward pass through the classifier section
//	bf — backward pass through the feature section
//
// Freezing the feature section skips bf (and feature gradient updates),
// which is the mechanism weak clients use in Aergia.
type Network struct {
	InShape    []int
	Features   []Layer
	Classifier []Layer

	backend        tensor.Backend
	featuresFrozen bool

	// inBuf is the cached input-conversion tensor used when the backend's
	// element type differs from the (float64) dataset tensors.
	inBuf *tensor.Tensor
	// lossIn/lossGd/lossGrad are the loss workspace: logits widened to
	// float64, the gradient computed in float64, then narrowed back into a
	// tensor of the backend dtype. Reused across samples.
	lossIn   []float64
	lossGd   []float64
	lossGrad *tensor.Tensor
}

// ErrFrozen is returned when an operation requires trainable features but
// the feature section is frozen.
var ErrFrozen = errors.New("nn: feature section is frozen")

// NewNetwork assembles a network from feature and classifier sections and
// validates the shape flow from inShape. Adjacent (conv|dense, relu) pairs
// are fused: the linear layer applies the activation inside its kernels and
// the ReLU layer becomes a pass-through. The ReLU stays in the layer list so
// shape propagation, checkpointing, and the FLOP cost model (which drives
// the simulation's virtual timing) are exactly as before.
func NewNetwork(inShape []int, features, classifier []Layer) (*Network, error) {
	n := &Network{
		InShape:    append([]int(nil), inShape...),
		Features:   features,
		Classifier: classifier,
	}
	if _, err := n.OutShape(); err != nil {
		return nil, err
	}
	fuseSection(n.Features)
	fuseSection(n.Classifier)
	// The first layer's input gradient is discarded by the training loop;
	// tell its workspace so the engines skip computing it. Parameter
	// gradients are unaffected, so this never changes trained weights.
	if len(n.Features) > 0 {
		if l, ok := n.Features[0].(*Conv2DLayer); ok {
			l.ws.NoInputGrad = true
		}
	}
	return n, nil
}

// fuseSection marks every ReLU directly preceded by a convolution or dense
// layer as fused into that layer's kernels. Fusion is bit-preserving: the
// fused kernels apply the identical element semantics to each finished
// output value (see tensor.Activation).
func fuseSection(layers []Layer) {
	for i := 0; i+1 < len(layers); i++ {
		r, ok := layers[i+1].(*ReLU)
		if !ok || r.fused {
			continue
		}
		switch l := layers[i].(type) {
		case *Conv2DLayer:
			l.act = tensor.ActReLU
			r.fused = true
		case *DenseLayer:
			l.act = tensor.ActReLU
			r.fused = true
		}
	}
}

// OutShape propagates the input shape through every layer, validating that
// the sections compose, and returns the final output shape.
func (n *Network) OutShape() ([]int, error) {
	shape := append([]int(nil), n.InShape...)
	var err error
	for _, l := range n.Features {
		if shape, err = l.OutShape(shape); err != nil {
			return nil, fmt.Errorf("feature layer %s: %w", l.Name(), err)
		}
	}
	for _, l := range n.Classifier {
		if shape, err = l.OutShape(shape); err != nil {
			return nil, fmt.Errorf("classifier layer %s: %w", l.Name(), err)
		}
	}
	return shape, nil
}

// SetBackend installs the compute backend on the network and every layer,
// and converts every parameter and gradient tensor to the backend's element
// type (float64→float32 rounds once; tensor pointers stay stable, so
// optimizer state keyed by tensor identity survives). A nil backend selects
// the serial float64 reference; switching float64→float32 starts training
// from the narrowed reference weights.
func (n *Network) SetBackend(be tensor.Backend) {
	n.backend = be
	dt := backendOr(be).DType()
	for _, l := range n.Features {
		l.SetBackend(be)
		convertAll(l.Params(), dt)
		convertAll(l.Grads(), dt)
	}
	for _, l := range n.Classifier {
		l.SetBackend(be)
		convertAll(l.Params(), dt)
		convertAll(l.Grads(), dt)
	}
}

func convertAll(ts []*tensor.Tensor, dt tensor.DType) {
	for _, t := range ts {
		t.ConvertTo(dt)
	}
}

// adaptInput returns x converted to the backend's element type, staging the
// conversion in a cached buffer. Float64 backends see the dataset tensor
// unchanged.
func (n *Network) adaptInput(x *tensor.Tensor) *tensor.Tensor {
	dt := backendOr(n.backend).DType()
	if x.DType() == dt {
		return x
	}
	if n.inBuf == nil || n.inBuf.DType() != dt || !n.inBuf.SameShape(x) {
		n.inBuf = tensor.MustNewOf(dt, x.Shape()...)
	}
	if err := n.inBuf.CopyFrom(x); err != nil {
		// Shapes were just matched; CopyFrom cannot fail.
		panic(err)
	}
	return n.inBuf
}

// Backend returns the network's compute backend (never nil).
func (n *Network) Backend() tensor.Backend {
	return backendOr(n.backend)
}

// SetFeaturesFrozen toggles freezing of the feature section.
func (n *Network) SetFeaturesFrozen(frozen bool) { n.featuresFrozen = frozen }

// FeaturesFrozen reports whether the feature section is frozen.
func (n *Network) FeaturesFrozen() bool { return n.featuresFrozen }

// ForwardFeatures runs the ff phase for one sample, converting the input to
// the backend's element type if needed.
func (n *Network) ForwardFeatures(x *tensor.Tensor) (*tensor.Tensor, error) {
	h := n.adaptInput(x)
	var err error
	for _, l := range n.Features {
		if h, err = l.Forward(h); err != nil {
			return nil, fmt.Errorf("ff %s: %w", l.Name(), err)
		}
	}
	return h, nil
}

// ForwardClassifier runs the fc phase for one sample.
func (n *Network) ForwardClassifier(h *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for _, l := range n.Classifier {
		if h, err = l.Forward(h); err != nil {
			return nil, fmt.Errorf("fc %s: %w", l.Name(), err)
		}
	}
	return h, nil
}

// Forward runs ff then fc.
func (n *Network) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	h, err := n.ForwardFeatures(x)
	if err != nil {
		return nil, err
	}
	return n.ForwardClassifier(h)
}

// BackwardClassifier runs the bc phase, returning the gradient at the
// feature/classifier boundary.
func (n *Network) BackwardClassifier(gy *tensor.Tensor) (*tensor.Tensor, error) {
	g := gy
	var err error
	for i := len(n.Classifier) - 1; i >= 0; i-- {
		l := n.Classifier[i]
		if g, err = l.Backward(g); err != nil {
			return nil, fmt.Errorf("bc %s: %w", l.Name(), err)
		}
	}
	return g, nil
}

// BackwardFeatures runs the bf phase. It returns ErrFrozen when the feature
// section is frozen.
func (n *Network) BackwardFeatures(g *tensor.Tensor) error {
	if n.featuresFrozen {
		return ErrFrozen
	}
	var err error
	for i := len(n.Features) - 1; i >= 0; i-- {
		l := n.Features[i]
		if g, err = l.Backward(g); err != nil {
			return fmt.Errorf("bf %s: %w", l.Name(), err)
		}
	}
	return nil
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.Features {
		zeroAll(l.Grads())
	}
	for _, l := range n.Classifier {
		zeroAll(l.Grads())
	}
}

// TrainBatch performs one SGD step on a mini-batch. When the feature
// section is frozen, the bf phase is skipped and only classifier parameters
// are updated. It returns the mean loss over the batch.
func (n *Network) TrainBatch(xs []*tensor.Tensor, ys []int, opt *SGD) (float64, error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: batch of %d inputs, %d labels", len(xs), len(ys))
	}
	n.ZeroGrads()
	var total float64
	for i, x := range xs {
		logits, err := n.Forward(x)
		if err != nil {
			return 0, err
		}
		loss, grad, err := n.lossAndGrad(logits, ys[i])
		if err != nil {
			return 0, err
		}
		total += loss
		gBoundary, err := n.BackwardClassifier(grad)
		if err != nil {
			return 0, err
		}
		if !n.featuresFrozen {
			if err := n.BackwardFeatures(gBoundary); err != nil {
				return 0, err
			}
		}
	}
	inv := 1 / float64(len(xs))
	be := n.Backend()
	scaleGrads(be, n.classifierGrads(), inv)
	if !n.featuresFrozen {
		scaleGrads(be, n.featureGrads(), inv)
	}
	if opt.Backend == nil {
		opt.Backend = n.backend
	}
	if err := opt.Step(n.classifierParams(), n.classifierGrads()); err != nil {
		return 0, err
	}
	if !n.featuresFrozen {
		if err := opt.Step(n.featureParams(), n.featureGrads()); err != nil {
			return 0, err
		}
	}
	return total * inv, nil
}

// Predict returns the argmax class for one sample.
func (n *Network) Predict(x *tensor.Tensor) (int, error) {
	logits, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	return logits.MaxIndex(), nil
}

// Evaluate returns the accuracy of the network on a labelled set.
func (n *Network) Evaluate(xs []*tensor.Tensor, ys []int) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("nn: empty evaluation set")
	}
	correct := 0
	for i, x := range xs {
		p, err := n.Predict(x)
		if err != nil {
			return 0, err
		}
		if p == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs)), nil
}

func (n *Network) featureParams() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range n.Features {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (n *Network) classifierParams() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range n.Classifier {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (n *Network) featureGrads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range n.Features {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

func (n *Network) classifierGrads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range n.Classifier {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

func scaleGrads(be tensor.Backend, gs []*tensor.Tensor, a float64) {
	for _, g := range gs {
		be.ScaleT(a, g)
	}
}

// lossAndGrad is the workspace form of SoftmaxCrossEntropy: logits are
// widened into a cached float64 buffer, the loss and gradient are computed
// in float64 with the exact reference arithmetic, and the gradient is
// narrowed back into a cached tensor of the logits' element type. The
// returned tensor is reused on the next call.
func (n *Network) lossAndGrad(logits *tensor.Tensor, label int) (float64, *tensor.Tensor, error) {
	if logits.Dims() != 1 {
		return 0, nil, fmt.Errorf("nn: loss expects 1-D logits, got %v", logits.Shape())
	}
	k := logits.Size()
	if label < 0 || label >= k {
		return 0, nil, fmt.Errorf("nn: label %d out of range [0,%d)", label, k)
	}
	if cap(n.lossIn) < k {
		n.lossIn = make([]float64, k)
		n.lossGd = make([]float64, k)
	}
	n.lossIn, n.lossGd = n.lossIn[:k], n.lossGd[:k]
	logits.CopyToF64(n.lossIn)
	loss := softmaxXEntInto(n.lossIn, label, n.lossGd)
	if n.lossGrad == nil || n.lossGrad.DType() != logits.DType() || n.lossGrad.Size() != k {
		n.lossGrad = tensor.MustNewOf(logits.DType(), k)
	}
	n.lossGrad.CopyFromF64(n.lossGd)
	return loss, n.lossGrad, nil
}

// ParamCount returns the total number of trainable parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.featureParams() {
		total += p.Size()
	}
	for _, p := range n.classifierParams() {
		total += p.Size()
	}
	return total
}

// ByteSize returns the serialized model size in bytes (8 bytes/parameter),
// used by the network transfer cost model.
func (n *Network) ByteSize() int { return 8 * n.ParamCount() }
