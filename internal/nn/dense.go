package nn

import (
	"fmt"
	"math"

	"aergia/internal/tensor"
)

// DenseLayer is a fully connected layer: y = Wx + b.
type DenseLayer struct {
	In  int
	Out int

	weight *tensor.Tensor // (Out, In)
	bias   *tensor.Tensor // (Out)
	gw     *tensor.Tensor
	gb     *tensor.Tensor

	be        tensor.Backend
	lastInput *tensor.Tensor
	// act is the activation fused into the layer's kernels (set by
	// fuseSection when a ReLU directly follows); ws owns the layer's
	// preallocated output and gradient buffers.
	act tensor.Activation
	ws  tensor.Workspace
}

var _ Layer = (*DenseLayer)(nil)

func (ip initParams) dense(in, out int) *DenseLayer {
	l := &DenseLayer{
		In:     in,
		Out:    out,
		weight: tensor.MustNewOf(ip.dt, out, in),
		bias:   tensor.MustNewOf(ip.dt, out),
		gw:     tensor.MustNewOf(ip.dt, out, in),
		gb:     tensor.MustNewOf(ip.dt, out),
	}
	ip.fill(l.weight, math.Sqrt(2/float64(in+out)))
	return l
}

// Name implements Layer.
func (l *DenseLayer) Name() string { return fmt.Sprintf("dense(%d->%d)", l.In, l.Out) }

// SetBackend implements Layer.
func (l *DenseLayer) SetBackend(be tensor.Backend) { l.be = be }

// Forward implements Layer.
func (l *DenseLayer) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Dims() != 1 || x.Size() != l.In {
		return nil, fmt.Errorf("nn: dense expects vector of %d, got %v", l.In, x.Shape())
	}
	l.lastInput = x
	return backendOr(l.be).DenseForwardFused(l.weight, l.bias, x, l.act, &l.ws)
}

// Backward implements Layer.
func (l *DenseLayer) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastInput == nil {
		return nil, ErrNoForward
	}
	if gy.Size() != l.Out {
		return nil, fmt.Errorf("nn: dense grad size %d, want %d", gy.Size(), l.Out)
	}
	return backendOr(l.be).DenseBackwardFused(l.weight, l.lastInput, gy, l.act, l.gw, l.gb, &l.ws)
}

// Params implements Layer.
func (l *DenseLayer) Params() []*tensor.Tensor { return []*tensor.Tensor{l.weight, l.bias} }

// Grads implements Layer.
func (l *DenseLayer) Grads() []*tensor.Tensor { return []*tensor.Tensor{l.gw, l.gb} }

// OutShape implements Layer.
func (l *DenseLayer) OutShape(in []int) ([]int, error) {
	if numel(in) != l.In {
		return nil, fmt.Errorf("nn: dense input %v, want %d elements", in, l.In)
	}
	return []int{l.Out}, nil
}

// ForwardFLOPs implements Layer.
func (l *DenseLayer) ForwardFLOPs([]int) float64 {
	return 2 * float64(l.In*l.Out)
}

// BackwardFLOPs implements Layer.
func (l *DenseLayer) BackwardFLOPs([]int) float64 {
	return 4 * float64(l.In*l.Out)
}
