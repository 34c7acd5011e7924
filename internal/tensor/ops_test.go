package tensor

// The package-level kernels below are the float64 serial reference the
// tests check the engines against: thin wrappers over the shared serial
// engine instantiation. They execute the exact historical operation
// sequences (the generic engine's float64 stamp preserves every loop
// structure and accumulation order), so results are bit-identical to the
// seed implementation.

// MatMul computes C = A × B for 2-D tensors A (m×k) and B (k×n).
func MatMul(a, b *Tensor) (*Tensor, error) { return serialRef.MatMul(a, b) }

// MatMulTransA computes C = Aᵀ × B for A (k×m) and B (k×n), yielding m×n.
func MatMulTransA(a, b *Tensor) (*Tensor, error) { return serialRef.MatMulTransA(a, b) }

// MatMulTransB computes C = A × Bᵀ for A (m×k) and B (n×k), yielding m×n.
func MatMulTransB(a, b *Tensor) (*Tensor, error) { return serialRef.MatMulTransB(a, b) }

// Conv2D computes a same/valid 2-D convolution.
//
// Input x has shape (C, H, W); kernels w has shape (F, C, KH, KW); bias b has
// shape (F). pad is the symmetric zero padding and stride the step. The
// output has shape (F, OH, OW) with OH=(H+2*pad-KH)/stride+1.
func Conv2D(x, w, b *Tensor, pad, stride int) (*Tensor, error) {
	return serialRef.Conv2D(x, w, b, pad, stride)
}

// Conv2DGrads computes the gradients of a Conv2D operation.
//
// Given the upstream gradient gy (F,OH,OW), input x (C,H,W), and kernels
// w (F,C,KH,KW), it returns (gx, gw, gb): gradients with respect to the
// input, kernels, and bias.
func Conv2DGrads(x, w, gy *Tensor, pad, stride int) (gx, gw, gb *Tensor, err error) {
	return serialRef.Conv2DGrads(x, w, gy, pad, stride)
}

// MaxPool2D applies max pooling with a square window and equal stride.
// Input x has shape (C,H,W); the output has shape (C,H/size,W/size).
// It also returns the flat argmax indices used by MaxPool2DGrad.
func MaxPool2D(x *Tensor, size int) (*Tensor, []int, error) {
	return serialRef.MaxPool2D(x, size)
}

// MaxPool2DGrad routes the upstream gradient gy back through the argmax
// indices produced by MaxPool2D, for an input of the given shape.
func MaxPool2DGrad(gy *Tensor, arg []int, inShape []int) (*Tensor, error) {
	return serialRef.MaxPool2DGrad(gy, arg, inShape)
}
