package nn

import (
	"fmt"
	"math"

	"aergia/internal/tensor"
)

// Conv2DLayer is a 2-D convolution with bias.
type Conv2DLayer struct {
	InChannels  int
	OutChannels int
	Kernel      int
	Pad         int
	Stride      int

	weight *tensor.Tensor // (F, C, K, K)
	bias   *tensor.Tensor // (F)
	gw     *tensor.Tensor
	gb     *tensor.Tensor

	be        tensor.Backend
	lastInput *tensor.Tensor
	// act is the activation fused into the layer's kernels (set by
	// fuseSection when a ReLU directly follows); ws owns the layer's
	// preallocated im2col, output, and input-gradient buffers.
	act tensor.Activation
	ws  tensor.Workspace
}

var _ Layer = (*Conv2DLayer)(nil)

func (ip initParams) conv(inC, outC, kernel, pad, stride int) *Conv2DLayer {
	l := &Conv2DLayer{
		InChannels:  inC,
		OutChannels: outC,
		Kernel:      kernel,
		Pad:         pad,
		Stride:      stride,
		weight:      tensor.MustNewOf(ip.dt, outC, inC, kernel, kernel),
		bias:        tensor.MustNewOf(ip.dt, outC),
		gw:          tensor.MustNewOf(ip.dt, outC, inC, kernel, kernel),
		gb:          tensor.MustNewOf(ip.dt, outC),
	}
	fanIn := float64(inC * kernel * kernel)
	ip.fill(l.weight, math.Sqrt(2/fanIn))
	return l
}

// Name implements Layer.
func (l *Conv2DLayer) Name() string {
	return fmt.Sprintf("conv%dx%d(%d->%d)", l.Kernel, l.Kernel, l.InChannels, l.OutChannels)
}

// SetBackend implements Layer.
func (l *Conv2DLayer) SetBackend(be tensor.Backend) { l.be = be }

// Forward implements Layer. The fused kernel stages the output (and im2col
// matrix) in the layer workspace and applies any fused activation in the
// same pass; the returned tensor is workspace-owned and valid until the next
// Forward.
func (l *Conv2DLayer) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	l.lastInput = x
	return backendOr(l.be).Conv2DFused(x, l.weight, l.bias, l.Pad, l.Stride, l.act, &l.ws)
}

// Backward implements Layer. The fused kernel masks the upstream gradient
// through any fused activation, computes fresh weight/bias gradients, and
// adds them into the layer accumulators — the same fresh-gradient-then-add
// order as the unfused path, so float64 results are bit-identical. The
// returned input gradient is nil for a network's first layer, where nothing
// reads it.
func (l *Conv2DLayer) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastInput == nil {
		return nil, ErrNoForward
	}
	return backendOr(l.be).Conv2DGradsFused(l.lastInput, l.weight, gy, l.Pad, l.Stride, l.act, l.gw, l.gb, &l.ws)
}

// Params implements Layer.
func (l *Conv2DLayer) Params() []*tensor.Tensor { return []*tensor.Tensor{l.weight, l.bias} }

// Grads implements Layer.
func (l *Conv2DLayer) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.gw, l.gb} }

// OutShape implements Layer.
func (l *Conv2DLayer) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != l.InChannels {
		return nil, fmt.Errorf("nn: conv expects (%d,H,W), got %v", l.InChannels, in)
	}
	oh := (in[1]+2*l.Pad-l.Kernel)/l.Stride + 1
	ow := (in[2]+2*l.Pad-l.Kernel)/l.Stride + 1
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: conv output %dx%d for input %v", oh, ow, in)
	}
	return []int{l.OutChannels, oh, ow}, nil
}

// ForwardFLOPs implements Layer. One multiply-add per kernel tap per output
// element, counted as two FLOPs.
func (l *Conv2DLayer) ForwardFLOPs(in []int) float64 {
	out, err := l.OutShape(in)
	if err != nil {
		return 0
	}
	taps := float64(l.InChannels * l.Kernel * l.Kernel)
	return 2 * taps * float64(numel(out))
}

// BackwardFLOPs implements Layer. The backward pass computes both the input
// gradient and the weight gradient, each costing about one forward pass.
func (l *Conv2DLayer) BackwardFLOPs(in []int) float64 {
	return 2 * l.ForwardFLOPs(in)
}
