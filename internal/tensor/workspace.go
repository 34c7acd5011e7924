package tensor

// Activation selects the element-wise nonlinearity a fused kernel applies to
// its output in the same pass as the linear operation. Fused activations are
// bit-identical to running the plain kernel followed by a separate
// activation layer: the linear accumulation is unchanged and the
// nonlinearity is applied to each finished output element.
type Activation uint8

// Supported fused activations.
const (
	// ActNone applies no nonlinearity (the plain linear kernel).
	ActNone Activation = iota
	// ActReLU clamps negatives to zero and records an element mask in the
	// workspace for the matching fused backward pass.
	ActReLU
)

// Workspace owns the preallocated buffers one layer needs across training
// steps: the forward output, backward input-gradient, the im2col column
// matrix, the activation mask, and pooling argmax indices. Kernels size the
// buffers lazily on first use and reuse them on every later call with the
// same shapes, so a layer's steady state performs no allocations. What a
// kernel needs only for the length of one call (the convolution backward's
// staged gradient and padded planes) is not here but in the engine's
// scratch stock, shared by every layer. The zero value is ready to use.
//
// A Workspace is owned by exactly one layer of one network (the network's
// layers form a per-client arena) and must not be shared across goroutines:
// buffers returned by workspace kernels (the forward output, the backward
// gradient) are valid until the next call on the same workspace.
type Workspace struct {
	// NoInputGrad marks a layer whose input gradient is never consumed —
	// the first layer of a network, whose backward output the training
	// loop discards. Every engine's fused convolution backward then skips
	// computing gx and returns nil (the one exception: the strided
	// fallback, which has the gradient anyway and returns it). Parameter
	// gradients are unaffected (gx feeds nothing else), so setting it
	// never changes trained weights.
	NoInputGrad bool

	out  *Tensor // forward output
	gx   *Tensor // backward gradient w.r.t. the layer input
	cols *Tensor // im2col column matrix
	mask []bool  // fused-activation pass-through mask
	arg  []int   // pooling argmax indices
}

// ensureMask returns the mask buffer resized to n.
func (ws *Workspace) ensureMask(n int) []bool {
	if cap(ws.mask) < n {
		ws.mask = make([]bool, n)
	}
	ws.mask = ws.mask[:n]
	return ws.mask
}

// ensureArg returns the argmax buffer resized to n.
func (ws *Workspace) ensureArg(n int) []int {
	if cap(ws.arg) < n {
		ws.arg = make([]int, n)
	}
	ws.arg = ws.arg[:n]
	return ws.arg
}

// ensureTensor returns *slot resized/retyped to the given dtype and shape,
// allocating only when the cached tensor does not match. Contents are
// unspecified; callers that accumulate must Zero() it first.
func ensureTensor(slot **Tensor, dt DType, shape ...int) *Tensor {
	t := *slot
	if t != nil && t.dt == dt && len(t.shape) == len(shape) {
		same := true
		for i, d := range shape {
			if t.shape[i] != d {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	t = MustNewOf(dt, shape...)
	*slot = t
	return t
}
