package tensor

// DType identifies the element type of a tensor or backend. The float64
// reference type is the golden-parity dtype: float64 runs are pinned
// bit-identical to the historical kernels. F32 halves the memory traffic of
// every kernel and is the training dtype of the serial32 backend; its
// results are deterministic (same bits run-to-run) but numerically distinct
// from float64.
type DType uint8

// Element types.
const (
	// F64 is the IEEE-754 double-precision reference element type.
	F64 DType = iota
	// F32 is the IEEE-754 single-precision training element type.
	F32
)

// String implements fmt.Stringer.
func (dt DType) String() string {
	if dt == F32 {
		return "float32"
	}
	return "float64"
}

// Bytes returns the size of one element in bytes.
func (dt DType) Bytes() int {
	if dt == F32 {
		return 4
	}
	return 8
}

// Elem constrains the element types a compute kernel can be instantiated
// with. Kernels are written once against Elem and stamped out per dtype, so
// the float64 instantiation executes exactly the historical operation
// sequence (Go never auto-fuses a*b+c, so generic code is bit-compatible
// with the hand-written float64 kernels it replaced).
type Elem interface {
	~float32 | ~float64
}

// Ops is the small per-element value set a generic kernel needs beyond plain
// arithmetic: a multiply-add, boundary conversions, and the dtype's epsilon.
// It is a zero-size value (the zerfoo compute-engine idiom): methods inline
// and carry no state.
type Ops[T Elem] struct{}

// FMA returns a*b + c. It is deliberately NOT a hardware fused
// multiply-add: the intermediate product is rounded to T, matching the
// two-instruction sequence of the scalar kernels, so float64 results stay
// bit-identical to the pre-generic backends.
func (Ops[T]) FMA(a, b, c T) T { return a*b + c }

// FromF64 narrows a float64 boundary value (dataset samples, wire weights)
// to the kernel element type.
func (Ops[T]) FromF64(v float64) T { return T(v) }

// ToF64 widens a kernel value back to the float64 boundary representation.
func (Ops[T]) ToF64(v T) float64 { return float64(v) }

// Eps returns the machine epsilon of T: the tolerance unit for
// dtype-sensitive comparisons (1.19e-7 for float32, 2.22e-16 for float64).
func (Ops[T]) Eps() T {
	var z T
	switch any(z).(type) {
	case float32:
		return T(1.1920929e-07)
	default:
		return T(2.220446049250313e-16)
	}
}

// widen copies src into dst, converting element types. The slices must have
// equal length.
func widen(dst []float64, src []float32) {
	for i, v := range src {
		dst[i] = float64(v)
	}
}

// narrow copies src into dst, rounding to float32. The slices must have
// equal length.
func narrow(dst []float32, src []float64) {
	for i, v := range src {
		dst[i] = float32(v)
	}
}
