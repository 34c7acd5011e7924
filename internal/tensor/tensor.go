// Package tensor provides a small dense tensor library that backs the
// neural-network substrate. It supports the shapes and operations needed
// to train the convolutional classifiers evaluated in the Aergia paper:
// element-wise arithmetic, matrix multiplication, 2D convolution (forward
// and backward), max pooling, and deterministic random initialization.
//
// Tensors store data in row-major order with a per-tensor element type
// (float64, the golden reference dtype, or float32, the half-size training
// dtype — see DType). The package is deliberately free of external
// dependencies and unsafe tricks; clarity and determinism matter more than
// peak throughput for a simulation-driven reproduction.
package tensor

import (
	"errors"
	"fmt"
	"math"
)

// Tensor is a dense row-major tensor. Exactly one of data/f32 is populated,
// selected by dt; the zero dtype is F64 so all pre-existing construction
// paths keep building float64 tensors.
type Tensor struct {
	shape []int
	dt    DType
	data  []float64
	f32   []float32
}

var (
	// ErrShapeMismatch is returned when two tensors with incompatible
	// shapes are combined.
	ErrShapeMismatch = errors.New("tensor: shape mismatch")
	// ErrBadShape is returned when a shape with non-positive dimensions
	// is supplied.
	ErrBadShape = errors.New("tensor: invalid shape")
	// ErrDTypeMismatch is returned when tensors with different element
	// types are combined, or a tensor meets a backend of the other dtype.
	ErrDTypeMismatch = errors.New("tensor: dtype mismatch")
)

// shapeCopy returns a fresh copy of shape for error formatting. Passing the
// incoming slice to fmt directly would make the parameter escape, forcing
// every variadic call site (ensureTensor and friends, on hot paths) to
// heap-allocate its shape arguments even when no error occurs.
func shapeCopy(shape []int) []int {
	s := make([]int, len(shape))
	copy(s, shape)
	return s
}

func checkShape(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("%w: %v", ErrBadShape, shapeCopy(shape))
		}
		n *= d
	}
	return n, nil
}

// New returns a zero-filled float64 tensor with the given shape.
func New(shape ...int) (*Tensor, error) {
	return NewOf(F64, shape...)
}

// NewOf returns a zero-filled tensor of the given element type and shape.
func NewOf(dt DType, shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	s := make([]int, len(shape))
	copy(s, shape)
	t := &Tensor{shape: s, dt: dt}
	if dt == F32 {
		t.f32 = make([]float32, n)
	} else {
		t.data = make([]float64, n)
	}
	return t, nil
}

// MustNew is New but panics on an invalid shape. It is intended for
// statically known shapes (e.g. layer construction with validated configs).
func MustNew(shape ...int) *Tensor {
	return MustNewOf(F64, shape...)
}

// MustNewOf is NewOf but panics on an invalid shape.
func MustNewOf(dt DType, shape ...int) *Tensor {
	t, err := NewOf(dt, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// FromSlice wraps data in a float64 tensor of the given shape. The slice is
// copied.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	t, err := New(shape...)
	if err != nil {
		return nil, err
	}
	if len(data) != len(t.data) {
		return nil, fmt.Errorf("%w: data length %d, shape %v needs %d",
			ErrShapeMismatch, len(data), shape, len(t.data))
	}
	copy(t.data, data)
	return t, nil
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int {
	s := make([]int, len(t.shape))
	copy(s, t.shape)
	return s
}

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Size returns the total number of elements.
func (t *Tensor) Size() int {
	if t.dt == F32 {
		return len(t.f32)
	}
	return len(t.data)
}

// DType returns the element type.
func (t *Tensor) DType() DType { return t.dt }

// Data returns the underlying float64 storage. Mutating it mutates the
// tensor; callers inside the nn package use this for performance-critical
// loops. It panics on a float32 tensor: dtype-generic callers must use
// CopyToF64/CopyFromF64 or Data32 instead of silently reading the wrong
// buffer.
func (t *Tensor) Data() []float64 {
	if t.dt != F64 {
		panic("tensor: Data() on float32 tensor (use Data32 or CopyToF64)")
	}
	return t.data
}

// Data32 returns the underlying float32 storage; it panics on a float64
// tensor.
func (t *Tensor) Data32() []float32 {
	if t.dt != F32 {
		panic("tensor: Data32() on float64 tensor (use Data)")
	}
	return t.f32
}

// Clone returns a deep copy (same dtype).
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: make([]int, len(t.shape)), dt: t.dt}
	copy(c.shape, t.shape)
	if t.dt == F32 {
		c.f32 = make([]float32, len(t.f32))
		copy(c.f32, t.f32)
	} else {
		c.data = make([]float64, len(t.data))
		copy(c.data, t.data)
	}
	return c
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i, d := range t.shape {
		if o.shape[i] != d {
			return false
		}
	}
	return true
}

func (t *Tensor) sameTyped(o *Tensor) error {
	if t.dt != o.dt {
		return fmt.Errorf("%w: %v vs %v", ErrDTypeMismatch, t.dt, o.dt)
	}
	if !t.SameShape(o) {
		return fmt.Errorf("%w: %v vs %v", ErrShapeMismatch, t.shape, o.shape)
	}
	return nil
}

// Reshape returns a view with the new shape sharing the same storage; the
// element count must be preserved.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if n != t.Size() {
		return nil, fmt.Errorf("%w: cannot reshape %v to %v", ErrShapeMismatch, t.shape, shapeCopy(shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{shape: s, dt: t.dt, data: t.data, f32: t.f32}, nil
}

// ViewInto repoints dst to be a view of t's storage with the given shape,
// reusing dst's shape slice when possible. It is the zero-alloc steady-state
// form of Reshape: layers that reshape the same buffer every step (Flatten)
// keep a cached header and refresh it in place. A nil dst allocates one.
func (t *Tensor) ViewInto(dst *Tensor, shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if n != t.Size() {
		return nil, fmt.Errorf("%w: cannot view %v as %v", ErrShapeMismatch, t.shape, shapeCopy(shape))
	}
	if dst == nil {
		dst = &Tensor{}
	}
	if cap(dst.shape) < len(shape) {
		dst.shape = make([]int, len(shape))
	}
	dst.shape = dst.shape[:len(shape)]
	copy(dst.shape, shape)
	dst.dt, dst.data, dst.f32 = t.dt, t.data, t.f32
	return dst, nil
}

// At returns the element at the given multi-dimensional index as float64.
func (t *Tensor) At(idx ...int) float64 {
	off := t.offset(idx)
	if t.dt == F32 {
		return float64(t.f32[off])
	}
	return t.data[off]
}

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) {
	off := t.offset(idx)
	if t.dt == F32 {
		t.f32[off] = float32(v)
	} else {
		t.data[off] = v
	}
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	if t.dt == F32 {
		f := float32(v)
		for i := range t.f32 {
			t.f32[i] = f
		}
		return
	}
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// AddInPlace adds o element-wise into t. Both tensors must share a dtype;
// float32 tensors accumulate in float32.
func (t *Tensor) AddInPlace(o *Tensor) error {
	if err := t.sameTyped(o); err != nil {
		return err
	}
	if t.dt == F32 {
		for i, v := range o.f32 {
			t.f32[i] += v
		}
		return nil
	}
	for i, v := range o.data {
		t.data[i] += v
	}
	return nil
}

// SubInPlace subtracts o element-wise from t.
func (t *Tensor) SubInPlace(o *Tensor) error {
	if err := t.sameTyped(o); err != nil {
		return err
	}
	if t.dt == F32 {
		for i, v := range o.f32 {
			t.f32[i] -= v
		}
		return nil
	}
	for i, v := range o.data {
		t.data[i] -= v
	}
	return nil
}

// ScaleInPlace multiplies every element by a.
func (t *Tensor) ScaleInPlace(a float64) {
	if t.dt == F32 {
		f := float32(a)
		for i := range t.f32 {
			t.f32[i] *= f
		}
		return
	}
	for i := range t.data {
		t.data[i] *= a
	}
}

// AxpyInPlace computes t += a*o (BLAS axpy).
func (t *Tensor) AxpyInPlace(a float64, o *Tensor) error {
	if err := t.sameTyped(o); err != nil {
		return err
	}
	if t.dt == F32 {
		f := float32(a)
		for i, v := range o.f32 {
			t.f32[i] += f * v
		}
		return nil
	}
	for i, v := range o.data {
		t.data[i] += a * v
	}
	return nil
}

// CopyFrom copies o's elements into t, converting dtypes if they differ.
// Shapes must match.
func (t *Tensor) CopyFrom(o *Tensor) error {
	if !t.SameShape(o) {
		return fmt.Errorf("%w: %v vs %v", ErrShapeMismatch, t.shape, o.shape)
	}
	switch {
	case t.dt == F64 && o.dt == F64:
		copy(t.data, o.data)
	case t.dt == F32 && o.dt == F32:
		copy(t.f32, o.f32)
	case t.dt == F64:
		widen(t.data, o.f32)
	default:
		narrow(t.f32, o.data)
	}
	return nil
}

// CopyToF64 writes the tensor's elements into dst as float64, widening
// float32 storage. dst must have exactly Size() elements.
func (t *Tensor) CopyToF64(dst []float64) {
	if len(dst) != t.Size() {
		panic(fmt.Sprintf("tensor: CopyToF64 dst %d, want %d", len(dst), t.Size()))
	}
	if t.dt == F32 {
		widen(dst, t.f32)
		return
	}
	copy(dst, t.data)
}

// CopyFromF64 overwrites the tensor's elements from src, narrowing to
// float32 storage when needed. src must have exactly Size() elements.
func (t *Tensor) CopyFromF64(src []float64) {
	if len(src) != t.Size() {
		panic(fmt.Sprintf("tensor: CopyFromF64 src %d, want %d", len(src), t.Size()))
	}
	if t.dt == F32 {
		narrow(t.f32, src)
		return
	}
	copy(t.data, src)
}

// ConvertTo switches the tensor's element type in place, converting the
// stored values. Converting float64→float32 rounds each element once; the
// reverse widens exactly. It is a no-op when the dtype already matches, so
// the tensor pointer (used as a map key by optimizers) is stable either way.
func (t *Tensor) ConvertTo(dt DType) {
	if t.dt == dt {
		return
	}
	if dt == F32 {
		t.f32 = make([]float32, len(t.data))
		narrow(t.f32, t.data)
		t.data = nil
	} else {
		t.data = make([]float64, len(t.f32))
		widen(t.data, t.f32)
		t.f32 = nil
	}
	t.dt = dt
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) (*Tensor, error) {
	c := t.Clone()
	if err := c.AddInPlace(o); err != nil {
		return nil, err
	}
	return c, nil
}

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) (*Tensor, error) {
	c := t.Clone()
	if err := c.SubInPlace(o); err != nil {
		return nil, err
	}
	return c, nil
}

// Scale returns a*t as a new tensor.
func Scale(a float64, t *Tensor) *Tensor {
	c := t.Clone()
	c.ScaleInPlace(a)
	return c
}

// Dot returns the inner product of two equally shaped and typed tensors,
// accumulated in float64.
func Dot(a, b *Tensor) (float64, error) {
	if err := a.sameTyped(b); err != nil {
		return 0, err
	}
	var s float64
	if a.dt == F32 {
		for i, v := range a.f32 {
			s += float64(v) * float64(b.f32[i])
		}
		return s, nil
	}
	for i, v := range a.data {
		s += v * b.data[i]
	}
	return s, nil
}

// Norm2 returns the Euclidean norm of the tensor (float64 accumulation).
func (t *Tensor) Norm2() float64 {
	var s float64
	if t.dt == F32 {
		for _, v := range t.f32 {
			s += float64(v) * float64(v)
		}
	} else {
		for _, v := range t.data {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// Sum returns the sum of all elements (float64 accumulation).
func (t *Tensor) Sum() float64 {
	var s float64
	if t.dt == F32 {
		for _, v := range t.f32 {
			s += float64(v)
		}
		return s
	}
	for _, v := range t.data {
		s += v
	}
	return s
}

// MaxIndex returns the index of the maximum element in a flat view. Ties
// resolve to the lowest index in both dtypes.
func (t *Tensor) MaxIndex() int {
	best := 0
	if t.dt == F32 {
		for i, v := range t.f32 {
			if v > t.f32[best] {
				best = i
			}
		}
		return best
	}
	for i, v := range t.data {
		if v > t.data[best] {
			best = i
		}
	}
	return best
}

// Equal reports element-wise equality within tolerance eps. Tensors of
// different dtypes compare by widened value. NaN equals nothing, itself
// included; an infinity equals only itself.
func Equal(a, b *Tensor, eps float64) bool {
	if !a.SameShape(b) {
		return false
	}
	n := a.Size()
	for i := 0; i < n; i++ {
		var av, bv float64
		if a.dt == F32 {
			av = float64(a.f32[i])
		} else {
			av = a.data[i]
		}
		if b.dt == F32 {
			bv = float64(b.f32[i])
		} else {
			bv = b.data[i]
		}
		if av != bv && !(math.Abs(av-bv) <= eps) {
			return false
		}
	}
	return true
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := t.Size()
	if n > 4 {
		n = 4
	}
	if t.dt == F32 {
		return fmt.Sprintf("Tensor%v%v…", t.shape, t.f32[:n])
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:n])
}
