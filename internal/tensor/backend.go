package tensor

import "fmt"

// Backend is the pluggable compute substrate behind every tensor operation
// the neural-network layers perform. Two exist, one per element type, both
// stamped from one generic engine (see kernels.go):
//
//   - "serial":   float64 — the correctness reference;
//   - "serial32": float32.
//
// "parallel" and "parallel32" are accepted as aliases of the two (they once
// named worker-pool variants with the same bits). Kernels run on the calling
// goroutine; a run spreads over the cores by training its clients side by
// side (DESIGN.md §14).
//
// Determinism: a backend produces bit-identical results for identical inputs
// — every output element is accumulated in one fixed floating-point order
// (see DESIGN.md, "Determinism"). The float64 backend is additionally pinned
// to the historical golden runs; the float32 backend runs the same kernels in
// the same order, so it is deterministic run-to-run but numerically distinct
// from float64 (results agree within float32 tolerance).
//
// The *Fused and *WS methods are the zero-allocation hot path: they stage
// outputs, gradients, im2col matrices, activation masks, and argmax indices
// in a caller-owned Workspace (one per layer) and apply activations in the
// same pass as the linear kernel. Buffers they return are valid until the
// next call on the same workspace.
type Backend interface {
	// Name identifies the backend ("serial" or "serial32").
	Name() string
	// Workers reports the width of one kernel call: always 1.
	Workers() int
	// DType reports the element type the backend computes in.
	DType() DType

	// MatMul computes C = A × B for A (m×k) and B (k×n).
	MatMul(a, b *Tensor) (*Tensor, error)
	// MatMulTransA computes C = Aᵀ × B for A (k×m) and B (k×n).
	MatMulTransA(a, b *Tensor) (*Tensor, error)
	// MatMulTransB computes C = A × Bᵀ for A (m×k) and B (n×k).
	MatMulTransB(a, b *Tensor) (*Tensor, error)

	// DenseForward computes y = Wx + bias for W (out×in), x (in), bias
	// (out). A nil bias means zero bias.
	DenseForward(w, bias, x *Tensor) (*Tensor, error)
	// DenseBackward computes the gradients of DenseForward: it accumulates
	// gw += gy ⊗ x and gb += gy, and returns gx = Wᵀ gy.
	DenseBackward(w, x, gy, gw, gb *Tensor) (*Tensor, error)
	// DenseForwardFused is DenseForward with a fused activation and
	// workspace-staged output.
	DenseForwardFused(w, bias, x *Tensor, act Activation, ws *Workspace) (*Tensor, error)
	// DenseBackwardFused is DenseBackward with the upstream gradient masked
	// through the fused activation and gx staged in the workspace.
	DenseBackwardFused(w, x, gy *Tensor, act Activation, gw, gb *Tensor, ws *Workspace) (*Tensor, error)

	// Conv2D computes a 2-D convolution of x (C,H,W) with kernels
	// w (F,C,KH,KW) and optional bias b (F).
	Conv2D(x, w, b *Tensor, pad, stride int) (*Tensor, error)
	// Conv2DGrads computes the gradients of Conv2D with respect to the
	// input, kernels, and bias.
	Conv2DGrads(x, w, gy *Tensor, pad, stride int) (gx, gw, gb *Tensor, err error)
	// Conv2DFused is Conv2D with a fused activation and workspace-staged
	// output and im2col scratch.
	Conv2DFused(x, w, b *Tensor, pad, stride int, act Activation, ws *Workspace) (*Tensor, error)
	// Conv2DGradsFused computes masked conv gradients, accumulating the
	// weight/bias gradients into gwAcc/gbAcc and returning workspace-owned
	// gx.
	Conv2DGradsFused(x, w, gy *Tensor, pad, stride int, act Activation, gwAcc, gbAcc *Tensor, ws *Workspace) (*Tensor, error)

	// MaxPool2D applies non-overlapping max pooling and returns the pooled
	// tensor plus the flat argmax indices.
	MaxPool2D(x *Tensor, size int) (*Tensor, []int, error)
	// MaxPool2DGrad routes gy back through the argmax indices.
	MaxPool2DGrad(gy *Tensor, arg []int, inShape []int) (*Tensor, error)
	// MaxPool2DWS is MaxPool2D with workspace-staged output and argmax.
	MaxPool2DWS(x *Tensor, size int, ws *Workspace) (*Tensor, []int, error)
	// MaxPool2DGradWS is MaxPool2DGrad with workspace-staged gx.
	MaxPool2DGradWS(gy *Tensor, arg []int, inShape []int, ws *Workspace) (*Tensor, error)

	// ReLUFwd computes relu(x) into the workspace and records the mask.
	ReLUFwd(x *Tensor, ws *Workspace) (*Tensor, error)
	// ReLUBwd masks gy through the recorded mask into the workspace.
	ReLUBwd(gy *Tensor, ws *Workspace) (*Tensor, error)

	// Axpy computes y += a*x element-wise over raw float64 slices (BLAS
	// axpy). The slices must have equal length.
	Axpy(a float64, x, y []float64)
	// Scale computes x *= a element-wise over a raw float64 slice.
	Scale(a float64, x []float64)
	// AxpyT computes y += a*x over tensors of either dtype.
	AxpyT(a float64, x, y *Tensor) error
	// ScaleT computes x *= a over a tensor of either dtype.
	ScaleT(a float64, x *Tensor)
}

var (
	_ Backend = Serial{}
	_ Backend = (*engine[float32])(nil)
	_ Backend = (*engine[float64])(nil)
)

// Serial is the float64 reference backend. Its methods delegate to the
// float64 engine, which executes the exact operation sequence of the seed
// implementation.
type Serial struct{}

// Name implements Backend.
func (Serial) Name() string { return "serial" }

// Workers implements Backend.
func (Serial) Workers() int { return 1 }

// DType implements Backend.
func (Serial) DType() DType { return F64 }

// MatMul implements Backend.
func (Serial) MatMul(a, b *Tensor) (*Tensor, error) { return serialRef.MatMul(a, b) }

// MatMulTransA implements Backend.
func (Serial) MatMulTransA(a, b *Tensor) (*Tensor, error) { return serialRef.MatMulTransA(a, b) }

// MatMulTransB implements Backend.
func (Serial) MatMulTransB(a, b *Tensor) (*Tensor, error) { return serialRef.MatMulTransB(a, b) }

// DenseForward implements Backend.
func (Serial) DenseForward(w, bias, x *Tensor) (*Tensor, error) {
	return serialRef.DenseForward(w, bias, x)
}

// DenseBackward implements Backend.
func (Serial) DenseBackward(w, x, gy, gw, gb *Tensor) (*Tensor, error) {
	return serialRef.DenseBackward(w, x, gy, gw, gb)
}

// DenseForwardFused implements Backend.
func (Serial) DenseForwardFused(w, bias, x *Tensor, act Activation, ws *Workspace) (*Tensor, error) {
	return serialRef.DenseForwardFused(w, bias, x, act, ws)
}

// DenseBackwardFused implements Backend.
func (Serial) DenseBackwardFused(w, x, gy *Tensor, act Activation, gw, gb *Tensor, ws *Workspace) (*Tensor, error) {
	return serialRef.DenseBackwardFused(w, x, gy, act, gw, gb, ws)
}

// Conv2D implements Backend.
func (Serial) Conv2D(x, w, b *Tensor, pad, stride int) (*Tensor, error) {
	return serialRef.Conv2D(x, w, b, pad, stride)
}

// Conv2DGrads implements Backend.
func (Serial) Conv2DGrads(x, w, gy *Tensor, pad, stride int) (*Tensor, *Tensor, *Tensor, error) {
	return serialRef.Conv2DGrads(x, w, gy, pad, stride)
}

// Conv2DFused implements Backend.
func (Serial) Conv2DFused(x, w, b *Tensor, pad, stride int, act Activation, ws *Workspace) (*Tensor, error) {
	return serialRef.Conv2DFused(x, w, b, pad, stride, act, ws)
}

// Conv2DGradsFused implements Backend.
func (Serial) Conv2DGradsFused(x, w, gy *Tensor, pad, stride int, act Activation, gwAcc, gbAcc *Tensor, ws *Workspace) (*Tensor, error) {
	return serialRef.Conv2DGradsFused(x, w, gy, pad, stride, act, gwAcc, gbAcc, ws)
}

// MaxPool2D implements Backend.
func (Serial) MaxPool2D(x *Tensor, size int) (*Tensor, []int, error) {
	return serialRef.MaxPool2D(x, size)
}

// MaxPool2DGrad implements Backend.
func (Serial) MaxPool2DGrad(gy *Tensor, arg []int, inShape []int) (*Tensor, error) {
	return serialRef.MaxPool2DGrad(gy, arg, inShape)
}

// MaxPool2DWS implements Backend.
func (Serial) MaxPool2DWS(x *Tensor, size int, ws *Workspace) (*Tensor, []int, error) {
	return serialRef.MaxPool2DWS(x, size, ws)
}

// MaxPool2DGradWS implements Backend.
func (Serial) MaxPool2DGradWS(gy *Tensor, arg []int, inShape []int, ws *Workspace) (*Tensor, error) {
	return serialRef.MaxPool2DGradWS(gy, arg, inShape, ws)
}

// ReLUFwd implements Backend.
func (Serial) ReLUFwd(x *Tensor, ws *Workspace) (*Tensor, error) { return serialRef.ReLUFwd(x, ws) }

// ReLUBwd implements Backend.
func (Serial) ReLUBwd(gy *Tensor, ws *Workspace) (*Tensor, error) { return serialRef.ReLUBwd(gy, ws) }

// Axpy implements Backend.
func (Serial) Axpy(a float64, x, y []float64) { serialRef.Axpy(a, x, y) }

// Scale implements Backend.
func (Serial) Scale(a float64, x []float64) { serialRef.Scale(a, x) }

// AxpyT implements Backend.
func (Serial) AxpyT(a float64, x, y *Tensor) error { return serialRef.AxpyT(a, x, y) }

// ScaleT implements Backend.
func (Serial) ScaleT(a float64, x *Tensor) { serialRef.ScaleT(a, x) }

// NewSerial32 returns the float32 backend.
func NewSerial32() Backend { return serialRef32 }

// CanonicalBackend validates a backend name and returns its canonical form:
// "" and the alias "parallel" map to "serial", "parallel32" to "serial32".
func CanonicalBackend(name string) (string, error) {
	switch name {
	case "", "serial", "parallel":
		return "serial", nil
	case "serial32", "parallel32":
		return "serial32", nil
	default:
		return "", fmt.Errorf("tensor: unknown backend %q (want serial or serial32)", name)
	}
}

// NewBackend returns the backend a name canonicalises to (see
// CanonicalBackend). The second argument was the worker count of the
// parallel variants and selects nothing.
func NewBackend(name string, _ int) (Backend, error) {
	canonical, err := CanonicalBackend(name)
	if err != nil {
		return nil, err
	}
	if canonical == "serial32" {
		return serialRef32, nil
	}
	return Serial{}, nil
}
