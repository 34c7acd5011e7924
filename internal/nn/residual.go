package nn

import (
	"fmt"

	"aergia/internal/tensor"
)

// ResidualBlock is a basic two-convolution residual unit:
// y = relu(conv2(relu(conv1(x))) + x). Channel count is preserved.
// It is used by the ResNet-style architectures profiled in Figure 4.
type ResidualBlock struct {
	conv1 *Conv2DLayer
	relu1 *ReLU
	conv2 *Conv2DLayer
	relu2 *ReLU

	lastSum *tensor.Tensor
}

var _ Layer = (*ResidualBlock)(nil)

// NewResidualBlock returns a residual block over `channels` feature maps
// with 3×3 kernels and same-padding. The first conv+relu pair is fused at
// construction: relu1 is kept only for the FLOP cost model (so phase costs
// are unchanged) while conv1 applies the activation inside its kernels.
// relu2 cannot fuse because the skip connection adds into conv2's output
// before the activation.
func NewResidualBlock(channels int, rng *tensor.RNG) *ResidualBlock {
	return initParams{rng: rng}.residual(channels)
}

func (ip initParams) residual(channels int) *ResidualBlock {
	b := &ResidualBlock{
		conv1: ip.conv(channels, channels, 3, 1, 1),
		relu1: NewReLU(),
		conv2: ip.conv(channels, channels, 3, 1, 1),
		relu2: NewReLU(),
	}
	b.conv1.act = tensor.ActReLU
	b.relu1.fused = true
	return b
}

// Name implements Layer.
func (l *ResidualBlock) Name() string {
	return fmt.Sprintf("resblock(%d)", l.conv1.InChannels)
}

// SetBackend implements Layer, propagating the backend to the block's
// child layers.
func (l *ResidualBlock) SetBackend(be tensor.Backend) {
	l.conv1.SetBackend(be)
	l.relu1.SetBackend(be)
	l.conv2.SetBackend(be)
	l.relu2.SetBackend(be)
}

// Forward implements Layer. conv1 applies its fused ReLU internally; the
// skip addition mutates conv2's workspace output in place, which is safe
// because conv2's backward reads only its recorded input, not its output.
func (l *ResidualBlock) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	h, err := l.conv1.Forward(x)
	if err != nil {
		return nil, err
	}
	if h, err = l.conv2.Forward(h); err != nil {
		return nil, err
	}
	if err = h.AddInPlace(x); err != nil {
		return nil, err
	}
	l.lastSum = h
	return l.relu2.Forward(h)
}

// Backward implements Layer. The skip gradient needs no clone: it lives in
// relu2's workspace, which neither conv backward touches, so the buffer is
// intact when it is added back in after conv1.
func (l *ResidualBlock) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastSum == nil {
		return nil, ErrNoForward
	}
	skip, err := l.relu2.Backward(gy)
	if err != nil {
		return nil, err
	}
	g, err := l.conv2.Backward(skip)
	if err != nil {
		return nil, err
	}
	if g, err = l.conv1.Backward(g); err != nil {
		return nil, err
	}
	if err = g.AddInPlace(skip); err != nil {
		return nil, err
	}
	return g, nil
}

// Params implements Layer.
func (l *ResidualBlock) Params() []*tensor.Tensor {
	return append(l.conv1.Params(), l.conv2.Params()...)
}

// Grads implements Layer.
func (l *ResidualBlock) Grads() []*tensor.Tensor {
	return append(l.conv1.Grads(), l.conv2.Grads()...)
}

// OutShape implements Layer.
func (l *ResidualBlock) OutShape(in []int) ([]int, error) {
	out, err := l.conv1.OutShape(in)
	if err != nil {
		return nil, err
	}
	return l.conv2.OutShape(out)
}

// ForwardFLOPs implements Layer.
func (l *ResidualBlock) ForwardFLOPs(in []int) float64 {
	mid, err := l.conv1.OutShape(in)
	if err != nil {
		return 0
	}
	return l.conv1.ForwardFLOPs(in) + l.relu1.ForwardFLOPs(mid) +
		l.conv2.ForwardFLOPs(mid) + float64(numel(mid)) + l.relu2.ForwardFLOPs(mid)
}

// BackwardFLOPs implements Layer.
func (l *ResidualBlock) BackwardFLOPs(in []int) float64 {
	mid, err := l.conv1.OutShape(in)
	if err != nil {
		return 0
	}
	return l.conv1.BackwardFLOPs(in) + l.relu1.BackwardFLOPs(mid) +
		l.conv2.BackwardFLOPs(mid) + float64(numel(mid)) + l.relu2.BackwardFLOPs(mid)
}
