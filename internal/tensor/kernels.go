package tensor

import "fmt"

// engine is the generic compute engine behind every Backend. It is written
// once against the Elem constraint and instantiated once per element type:
// engine[float64] is "serial", the golden-pinned reference, and
// engine[float32] is "serial32". Every kernel runs on the calling goroutine;
// a run's parallelism is its clients training side by side on compute lanes
// (internal/fl/lane.go, DESIGN.md §14), never a kernel split across cores.
//
// Determinism contract: a kernel's result is a pure function of its inputs —
// one fixed accumulation order per output element. The float64 engine
// executes the exact operation sequence of the historical hand-written
// kernels (Go forbids implicit FMA contraction), so it stays bit-identical
// to the pre-generic golden runs. That includes the im2col path of
// Conv2DFused against the direct convolution: the extra zero-padding terms
// im2col touches contribute ±0.0 to accumulators that can never themselves
// be -0.0 (they start from +0.0 or a bias and IEEE-754 addition only yields
// -0.0 from two -0.0 operands), so x + 0.0 == x bit-for-bit along the whole
// reduction.
//
// The data/newT accessors are plain function fields rather than method-set
// dispatch so that fetching a typed slice from a Tensor performs no
// interface boxing on the per-operation path.
type engine[T Elem] struct {
	name    string
	dt      DType
	ops     Ops[T]
	data    func(*Tensor) []T
	newT    func(shape ...int) *Tensor
	scratch arena[T]
	// fast selects reassociating kernel variants (im2col convolution
	// backward, multi-accumulator dot products). These regroup
	// floating-point sums, so only the float32 engine — which carries no
	// historical golden constraint — sets it.
	fast bool
}

// serialRef is the float64 engine; the exported Serial value type and the
// package-level reference kernels delegate to it.
var serialRef = &engine[float64]{
	name: "serial", dt: F64,
	data: func(t *Tensor) []float64 { return t.data },
	newT: func(shape ...int) *Tensor { return MustNewOf(F64, shape...) },
}

// serialRef32 is the float32 engine behind NewSerial32.
var serialRef32 = &engine[float32]{
	name: "serial32", dt: F32,
	data: func(t *Tensor) []float32 { return t.f32 },
	newT: func(shape ...int) *Tensor { return MustNewOf(F32, shape...) },
	fast: true,
}

// Name implements Backend.
func (e *engine[T]) Name() string { return e.name }

// Workers implements Backend: kernels run on the calling goroutine.
func (e *engine[T]) Workers() int { return 1 }

// DType implements Backend.
func (e *engine[T]) DType() DType { return e.dt }

// check rejects tensors whose dtype does not match the engine.
func (e *engine[T]) check(ts ...*Tensor) error {
	for _, t := range ts {
		if t != nil && t.dt != e.dt {
			return fmt.Errorf("%w: %s backend got %v tensor", ErrDTypeMismatch, e.name, t.dt)
		}
	}
	return nil
}

// MatMul implements Backend: C = A × B.
func (e *engine[T]) MatMul(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMul needs 2-D tensors, got %v and %v",
			ErrShapeMismatch, a.shape, b.shape)
	}
	if err := e.check(a, b); err != nil {
		return nil, err
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: MatMul inner dims %d vs %d", ErrShapeMismatch, k, k2)
	}
	c := e.newT(m, n)
	ad, bd, cd := e.data(a), e.data(b), e.data(c)
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c, nil
}

// MatMulTransA implements Backend: C = Aᵀ × B for A (k×m), B (k×n). Each row
// i accumulates over p in ascending order.
func (e *engine[T]) MatMulTransA(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMulTransA needs 2-D tensors", ErrShapeMismatch)
	}
	if err := e.check(a, b); err != nil {
		return nil, err
	}
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: MatMulTransA inner dims %d vs %d", ErrShapeMismatch, k, k2)
	}
	c := e.newT(m, n)
	ad, bd, cd := e.data(a), e.data(b), e.data(c)
	for i := 0; i < m; i++ {
		crow := cd[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ad[p*m+i]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c, nil
}

// MatMulTransB implements Backend: C = A × Bᵀ for A (m×k), B (n×k).
func (e *engine[T]) MatMulTransB(a, b *Tensor) (*Tensor, error) {
	if a.Dims() != 2 || b.Dims() != 2 {
		return nil, fmt.Errorf("%w: MatMulTransB needs 2-D tensors", ErrShapeMismatch)
	}
	if err := e.check(a, b); err != nil {
		return nil, err
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: MatMulTransB inner dims %d vs %d", ErrShapeMismatch, k, k2)
	}
	c := e.newT(m, n)
	ad, bd, cd := e.data(a), e.data(b), e.data(c)
	for i := 0; i < m; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var s T
			for p, av := range arow {
				s += av * brow[p]
			}
			crow[j] = s
		}
	}
	return c, nil
}

func (e *engine[T]) denseCheck(w, bias, x *Tensor) (out, in int, err error) {
	if w.Dims() != 2 {
		return 0, 0, fmt.Errorf("%w: DenseForward wants 2-D weights, got %v", ErrShapeMismatch, w.shape)
	}
	out, in = w.shape[0], w.shape[1]
	if x.Size() != in {
		return 0, 0, fmt.Errorf("%w: DenseForward input %d, want %d", ErrShapeMismatch, x.Size(), in)
	}
	if bias != nil && bias.Size() != out {
		return 0, 0, fmt.Errorf("%w: DenseForward bias %d, want %d", ErrShapeMismatch, bias.Size(), out)
	}
	return out, in, e.check(w, bias, x)
}

// DenseForward implements Backend: y = Wx + bias.
func (e *engine[T]) DenseForward(w, bias, x *Tensor) (*Tensor, error) {
	out, in, err := e.denseCheck(w, bias, x)
	if err != nil {
		return nil, err
	}
	y := e.newT(out)
	e.denseForwardInto(w, bias, x, ActNone, nil, y, out, in)
	return y, nil
}

// DenseForwardFused implements Backend: DenseForward with the activation
// applied to each finished output element, the output staged in the
// workspace, and (for ActReLU) the pass-through mask recorded for
// DenseBackwardFused.
func (e *engine[T]) DenseForwardFused(w, bias, x *Tensor, act Activation, ws *Workspace) (*Tensor, error) {
	if ws == nil {
		return nil, fmt.Errorf("tensor: DenseForwardFused needs a workspace")
	}
	out, in, err := e.denseCheck(w, bias, x)
	if err != nil {
		return nil, err
	}
	y := ensureTensor(&ws.out, e.dt, out)
	var mask []bool
	if act == ActReLU {
		mask = ws.ensureMask(out)
	}
	e.denseForwardInto(w, bias, x, act, mask, y, out, in)
	return y, nil
}

func (e *engine[T]) denseForwardInto(w, bias, x *Tensor, act Activation, mask []bool, y *Tensor, out, in int) {
	wd, xd, yd := e.data(w), e.data(x), e.data(y)
	var bd []T
	if bias != nil {
		bd = e.data(bias)
	}
	for o := 0; o < out; o++ {
		row := wd[o*in : (o+1)*in]
		var s T
		if bd != nil {
			s = bd[o]
		}
		for i, v := range xd {
			s += row[i] * v
		}
		if act == ActReLU {
			// Same element semantics as the standalone ReLU layer:
			// mask = s > 0, non-positive values clamp to +0.0, NaN
			// passes through unmasked.
			if s > 0 {
				mask[o] = true
			} else {
				mask[o] = false
				if s <= 0 {
					s = 0
				}
			}
		}
		yd[o] = s
	}
}

func (e *engine[T]) denseBackCheck(w, x, gy, gw, gb *Tensor) (out, in int, err error) {
	if w.Dims() != 2 {
		return 0, 0, fmt.Errorf("%w: DenseBackward wants 2-D weights, got %v", ErrShapeMismatch, w.shape)
	}
	out, in = w.shape[0], w.shape[1]
	if x.Size() != in || gy.Size() != out || gw.Size() != out*in || gb.Size() != out {
		return 0, 0, fmt.Errorf("%w: DenseBackward sizes x=%d gy=%d gw=%d gb=%d for (%d×%d)",
			ErrShapeMismatch, x.Size(), gy.Size(), gw.Size(), gb.Size(), out, in)
	}
	return out, in, e.check(w, x, gy, gw, gb)
}

// DenseBackward implements Backend: accumulates gw += gy ⊗ x and gb += gy in
// place and returns gx = Wᵀ gy.
func (e *engine[T]) DenseBackward(w, x, gy, gw, gb *Tensor) (*Tensor, error) {
	out, in, err := e.denseBackCheck(w, x, gy, gw, gb)
	if err != nil {
		return nil, err
	}
	gx := e.newT(in)
	e.denseBackwardInto(w, x, gy, ActNone, nil, gw, gb, gx, nil, out, in)
	return gx, nil
}

// DenseBackwardFused implements Backend: DenseBackward with the upstream
// gradient masked through the activation recorded by DenseForwardFused, and
// gx staged in the workspace. gw and gb are accumulated in place exactly
// like DenseBackward.
func (e *engine[T]) DenseBackwardFused(w, x, gy *Tensor, act Activation, gw, gb *Tensor, ws *Workspace) (*Tensor, error) {
	if ws == nil {
		return nil, fmt.Errorf("tensor: DenseBackwardFused needs a workspace")
	}
	out, in, err := e.denseBackCheck(w, x, gy, gw, gb)
	if err != nil {
		return nil, err
	}
	var mask []bool
	if act == ActReLU {
		mask = ws.mask
		if len(mask) != out {
			return nil, fmt.Errorf("tensor: DenseBackwardFused mask %d, want %d (run the fused forward first)",
				len(mask), out)
		}
	}
	gx := ensureTensor(&ws.gx, e.dt, in)
	gx.Zero()
	e.denseBackwardInto(w, x, gy, act, mask, gw, gb, gx, ws, out, in)
	return gx, nil
}

// denseBackwardInto is the shared dense backward kernel. The masked upstream
// gradient geff[o] (gy[o], or 0 where the fused ReLU clamped) reproduces the
// exact dataflow of a standalone ReLU backward followed by the plain kernel:
// gb accumulates geff even when zero (adding +0.0 is bit-preserving) and the
// remaining work skips on geff == 0.
func (e *engine[T]) denseBackwardInto(w, x, gy *Tensor, act Activation, mask []bool, gw, gb, gx *Tensor, ws *Workspace, out, in int) {
	wd, xd := e.data(w), e.data(x)
	gyd, gxd, gwd, gbd := e.data(gy), e.data(gx), e.data(gw), e.data(gb)
	if e.fast {
		e.denseBackwardFast(wd, xd, gyd, gwd, gbd, gxd, act, mask, ws, out, in)
		return
	}
	for o := 0; o < out; o++ {
		g := gyd[o]
		if act == ActReLU && !mask[o] {
			g = 0
		}
		gbd[o] += g
		if g == 0 {
			continue
		}
		row := wd[o*in : (o+1)*in]
		grow := gwd[o*in : (o+1)*in]
		for i, v := range xd {
			grow[i] += g * v
			gxd[i] += g * row[i]
		}
	}
}

// denseBackwardFast is the fast-engine dense backward. The input gradient
// folds four weight rows into gx per pass, quartering the gx loads/stores;
// the regrouped per-element sum reassociates the reduction, so only the
// float32 engine takes this path.
func (e *engine[T]) denseBackwardFast(wd, xd, gyd, gwd, gbd, gxd []T, act Activation, mask []bool, ws *Workspace, out, in int) {
	geff := gyd
	if act == ActReLU {
		// ws is non-nil on every fused call (DenseBackwardFused checks); the
		// staged buffer lives in the workspace so the steady state stays
		// allocation-free.
		geff = e.data(ensureTensor(&ws.gye, e.dt, out))
		for o, g := range gyd {
			if mask[o] {
				geff[o] = g
			} else {
				geff[o] = 0
			}
		}
	}
	// gw += geff ⊗ x and gb += geff. Masked rows still add their +0.0 into
	// gb (bit-preserving) and skip the axpy.
	for o := 0; o < out; o++ {
		g := geff[o]
		gbd[o] += g
		if g == 0 {
			continue
		}
		grow := gwd[o*in : (o+1)*in]
		for i, v := range xd {
			grow[i] += g * v
		}
	}
	// gx += Wᵀ geff, four output rows per pass; blocks where all four
	// gradients are zero are skipped entirely.
	o := 0
	for ; o+4 <= out; o += 4 {
		g0, g1, g2, g3 := geff[o], geff[o+1], geff[o+2], geff[o+3]
		if g0 == 0 && g1 == 0 && g2 == 0 && g3 == 0 {
			continue
		}
		r0 := wd[o*in : (o+1)*in]
		r1 := wd[(o+1)*in : (o+2)*in]
		r2 := wd[(o+2)*in : (o+3)*in]
		r3 := wd[(o+3)*in : (o+4)*in]
		for i := range gxd {
			gxd[i] += g0*r0[i] + g1*r1[i] + g2*r2[i] + g3*r3[i]
		}
	}
	for ; o < out; o++ {
		g := geff[o]
		if g == 0 {
			continue
		}
		row := wd[o*in : (o+1)*in]
		for i := range gxd {
			gxd[i] += g * row[i]
		}
	}
}

type convDims struct {
	cIn, h, w        int
	f, kh, kw        int
	oh, ow, ckk, ohw int
}

func (e *engine[T]) convCheck(x, w, b *Tensor, pad, stride int) (convDims, error) {
	var d convDims
	if x.Dims() != 3 || w.Dims() != 4 {
		return d, fmt.Errorf("%w: Conv2D wants x (C,H,W) and w (F,C,KH,KW)", ErrShapeMismatch)
	}
	d.cIn, d.h, d.w = x.shape[0], x.shape[1], x.shape[2]
	d.f, d.kh, d.kw = w.shape[0], w.shape[2], w.shape[3]
	if cK := w.shape[1]; d.cIn != cK {
		return d, fmt.Errorf("%w: Conv2D channels %d vs kernel %d", ErrShapeMismatch, d.cIn, cK)
	}
	if b != nil && b.Size() != d.f {
		return d, fmt.Errorf("%w: Conv2D bias size %d vs filters %d", ErrShapeMismatch, b.Size(), d.f)
	}
	d.oh = (d.h+2*pad-d.kh)/stride + 1
	d.ow = (d.w+2*pad-d.kw)/stride + 1
	if d.oh <= 0 || d.ow <= 0 {
		return d, fmt.Errorf("%w: Conv2D output %dx%d", ErrBadShape, d.oh, d.ow)
	}
	d.ckk = d.cIn * d.kh * d.kw
	d.ohw = d.oh * d.ow
	return d, e.check(x, w, b)
}

// conv2DDirect is the nested-loop reference convolution (the historical
// serial kernel): each output element accumulates bias-first over
// (c, ky, kx), skipping padded positions.
func (e *engine[T]) conv2DDirect(x, w, b, out *Tensor, pad, stride int, d convDims) {
	xd, wdta, od := e.data(x), e.data(w), e.data(out)
	var bd []T
	if b != nil {
		bd = e.data(b)
	}
	for fi := 0; fi < d.f; fi++ {
		var bias T
		if bd != nil {
			bias = bd[fi]
		}
		for oy := 0; oy < d.oh; oy++ {
			for ox := 0; ox < d.ow; ox++ {
				s := bias
				iy0 := oy*stride - pad
				ix0 := ox*stride - pad
				for c := 0; c < d.cIn; c++ {
					for ky := 0; ky < d.kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= d.h {
							continue
						}
						xrow := xd[(c*d.h+iy)*d.w:]
						wrow := wdta[((fi*d.cIn+c)*d.kh+ky)*d.kw:]
						for kx := 0; kx < d.kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= d.w {
								continue
							}
							s += xrow[ix] * wrow[kx]
						}
					}
				}
				od[(fi*d.oh+oy)*d.ow+ox] = s
			}
		}
	}
}

// im2colFill unrolls x into the (ckk)×(ohw) column matrix cols; padded
// positions become explicit zeros (bit-preserving per the engine's
// determinism contract).
func im2colFill[T Elem](cols, xd []T, pad, stride int, d convDims) {
	for pp := 0; pp < d.ckk; pp++ {
		c := pp / (d.kh * d.kw)
		rem := pp % (d.kh * d.kw)
		ky := rem / d.kw
		kx := rem % d.kw
		colrow := cols[pp*d.ohw : (pp+1)*d.ohw]
		for oy := 0; oy < d.oh; oy++ {
			iy := oy*stride - pad + ky
			dst := colrow[oy*d.ow : (oy+1)*d.ow]
			if iy < 0 || iy >= d.h {
				for ox := range dst {
					dst[ox] = 0
				}
				continue
			}
			xrow := xd[(c*d.h+iy)*d.w : (c*d.h+iy+1)*d.w]
			if stride == 1 {
				// Unit stride makes ix = ox - pad + kx contiguous: zero the
				// out-of-bounds edges and bulk-copy the interior span. Pure
				// data movement, so this is bit-exact.
				lo0 := pad - kx
				if lo0 < 0 {
					lo0 = 0
				}
				hi0 := d.w - 1 + pad - kx
				if hi0 > d.ow-1 {
					hi0 = d.ow - 1
				}
				for ox := 0; ox < lo0 && ox < d.ow; ox++ {
					dst[ox] = 0
				}
				if hi0 >= lo0 {
					copy(dst[lo0:hi0+1], xrow[lo0-pad+kx:])
				}
				tail := hi0 + 1
				if tail < 0 {
					tail = 0
				}
				for ox := tail; ox < d.ow; ox++ {
					dst[ox] = 0
				}
				continue
			}
			for ox := 0; ox < d.ow; ox++ {
				ix := ox*stride - pad + kx
				if ix < 0 || ix >= d.w {
					dst[ox] = 0
				} else {
					dst[ox] = xrow[ix]
				}
			}
		}
	}
}

// im2colMulFast is the fast-engine variant of im2colMul: four column rows
// fold into the output row per pass (quartering the output loads/stores),
// and output rows advance in pairs so each loaded column element feeds two
// filters (halving the dominant cols traffic). The regrouped per-element sum
// (w0·c0 + w1·c1 + w2·c2 + w3·c3 added as one chain) reassociates the
// reduction, so only the float32 engine uses it.
func im2colMulFast[T Elem](cols, wdta, bd, od []T, act Activation, mask []bool, d convDims) {
	n := d.ohw
	fi := 0
	for ; fi+2 <= d.f; fi += 2 {
		crowA := od[fi*n:][:n]
		crowB := od[(fi+1)*n:][:n]
		if bd != nil {
			ba, bb := bd[fi], bd[fi+1]
			for j := range crowA {
				crowA[j] = ba
				crowB[j] = bb
			}
		} else {
			for j := range crowA {
				crowA[j] = 0
				crowB[j] = 0
			}
		}
		wrowA := wdta[fi*d.ckk : (fi+1)*d.ckk]
		wrowB := wdta[(fi+1)*d.ckk : (fi+2)*d.ckk]
		k := 0
		for ; k+4 <= d.ckk; k += 4 {
			wa0, wa1, wa2, wa3 := wrowA[k], wrowA[k+1], wrowA[k+2], wrowA[k+3]
			wb0, wb1, wb2, wb3 := wrowB[k], wrowB[k+1], wrowB[k+2], wrowB[k+3]
			c0 := cols[k*n:][:n]
			c1 := cols[(k+1)*n:][:n]
			c2 := cols[(k+2)*n:][:n]
			c3 := cols[(k+3)*n:][:n]
			for j := range crowA {
				cv0, cv1, cv2, cv3 := c0[j], c1[j], c2[j], c3[j]
				crowA[j] += wa0*cv0 + wa1*cv1 + wa2*cv2 + wa3*cv3
				crowB[j] += wb0*cv0 + wb1*cv1 + wb2*cv2 + wb3*cv3
			}
		}
		for ; k < d.ckk; k++ {
			av, bv := wrowA[k], wrowB[k]
			colrow := cols[k*n:][:n]
			for j, cv := range colrow {
				crowA[j] += av * cv
				crowB[j] += bv * cv
			}
		}
	}
	for ; fi < d.f; fi++ {
		crow := od[fi*n:][:n]
		if bd != nil {
			bias := bd[fi]
			for j := range crow {
				crow[j] = bias
			}
		} else {
			for j := range crow {
				crow[j] = 0
			}
		}
		wrow := wdta[fi*d.ckk : (fi+1)*d.ckk]
		k := 0
		for ; k+4 <= d.ckk; k += 4 {
			w0, w1, w2, w3 := wrow[k], wrow[k+1], wrow[k+2], wrow[k+3]
			c0 := cols[k*n:][:n]
			c1 := cols[(k+1)*n:][:n]
			c2 := cols[(k+2)*n:][:n]
			c3 := cols[(k+3)*n:][:n]
			for j := range crow {
				crow[j] += w0*c0[j] + w1*c1[j] + w2*c2[j] + w3*c3[j]
			}
		}
		for ; k < d.ckk; k++ {
			// No zero-weight skip: the paired path above always adds, and the
			// odd filter takes the same arithmetic as the paired ones.
			av := wrow[k]
			colrow := cols[k*n:][:n]
			for j, cv := range colrow {
				crow[j] += av * cv
			}
		}
	}
	if act == ActReLU {
		for fi := 0; fi < d.f; fi++ {
			crow := od[fi*n : (fi+1)*n]
			mrow := mask[fi*n : (fi+1)*n]
			for j, v := range crow {
				if v > 0 {
					mrow[j] = true
				} else {
					mrow[j] = false
					if v <= 0 {
						crow[j] = 0
					}
				}
			}
		}
	}
}

// im2colMul multiplies the (f)×(ckk) kernel matrix with cols into out, each
// output row seeded by the filter bias, optionally applying the fused
// activation to the finished row.
func im2colMul[T Elem](cols, wdta, bd, od []T, act Activation, mask []bool, d convDims) {
	for fi := 0; fi < d.f; fi++ {
		crow := od[fi*d.ohw : (fi+1)*d.ohw]
		if bd != nil {
			bias := bd[fi]
			for j := range crow {
				crow[j] = bias
			}
		} else {
			for j := range crow {
				crow[j] = 0
			}
		}
		wrow := wdta[fi*d.ckk : (fi+1)*d.ckk]
		for pp, av := range wrow {
			if av == 0 {
				continue
			}
			colrow := cols[pp*d.ohw : (pp+1)*d.ohw]
			for j, cv := range colrow {
				crow[j] += av * cv
			}
		}
		if act == ActReLU {
			mrow := mask[fi*d.ohw : (fi+1)*d.ohw]
			for j, v := range crow {
				if v > 0 {
					mrow[j] = true
				} else {
					mrow[j] = false
					if v <= 0 {
						crow[j] = 0
					}
				}
			}
		}
	}
}

// Conv2D implements Backend. The float64 engine runs the direct nested-loop
// kernel; the fast engine stages an im2col column matrix in the scratch
// arena and runs the reassociated product, the one algorithm behind both
// its Conv2D and its Conv2DFused.
func (e *engine[T]) Conv2D(x, w, b *Tensor, pad, stride int) (*Tensor, error) {
	d, err := e.convCheck(x, w, b, pad, stride)
	if err != nil {
		return nil, err
	}
	out := e.newT(d.f, d.oh, d.ow)
	if !e.fast {
		e.conv2DDirect(x, w, b, out, pad, stride, d)
		return out, nil
	}
	colsBuf := e.scratch.get(d.ckk * d.ohw)
	defer e.scratch.put(colsBuf)
	var bd []T
	if b != nil {
		bd = e.data(b)
	}
	im2colFill(*colsBuf, e.data(x), pad, stride, d)
	im2colMulFast(*colsBuf, e.data(w), bd, e.data(out), ActNone, nil, d)
	return out, nil
}

// Conv2DFused implements Backend: Conv2D with the activation applied in the
// same pass, the output and im2col matrix staged in the workspace, and (for
// ActReLU) the pass-through mask recorded for Conv2DGradsFused. Both engines
// use the workspace-arena im2col path here, so the layer hot path performs
// no allocations in steady state.
func (e *engine[T]) Conv2DFused(x, w, b *Tensor, pad, stride int, act Activation, ws *Workspace) (*Tensor, error) {
	if ws == nil {
		return nil, fmt.Errorf("tensor: Conv2DFused needs a workspace")
	}
	d, err := e.convCheck(x, w, b, pad, stride)
	if err != nil {
		return nil, err
	}
	out := ensureTensor(&ws.out, e.dt, d.f, d.oh, d.ow)
	cols := e.data(ensureTensor(&ws.cols, e.dt, d.ckk*d.ohw))
	var mask []bool
	if act == ActReLU {
		mask = ws.ensureMask(d.f * d.ohw)
	}
	var bd []T
	if b != nil {
		bd = e.data(b)
	}
	im2colFill(cols, e.data(x), pad, stride, d)
	if e.fast {
		im2colMulFast(cols, e.data(w), bd, e.data(out), act, mask, d)
	} else {
		im2colMul(cols, e.data(w), bd, e.data(out), act, mask, d)
	}
	return out, nil
}

func (e *engine[T]) convGradsCheck(x, w, gy *Tensor, pad, stride int) (convDims, error) {
	var d convDims
	if x.Dims() != 3 || w.Dims() != 4 || gy.Dims() != 3 {
		return d, fmt.Errorf("%w: Conv2DGrads ranks", ErrShapeMismatch)
	}
	d.cIn, d.h, d.w = x.shape[0], x.shape[1], x.shape[2]
	d.f, d.kh, d.kw = w.shape[0], w.shape[2], w.shape[3]
	d.oh, d.ow = gy.shape[1], gy.shape[2]
	if gy.shape[0] != d.f {
		return d, fmt.Errorf("%w: Conv2DGrads filters %d vs %d", ErrShapeMismatch, gy.shape[0], d.f)
	}
	d.ckk = d.cIn * d.kh * d.kw
	d.ohw = d.oh * d.ow
	return d, e.check(x, w, gy)
}

// convGradsInto computes conv gradients into zeroed gx/gw/gb. The masked
// upstream gradient geff (gy, or 0 where the fused ReLU clamped) replicates
// a standalone ReLU backward followed by the plain kernel: work skips
// entirely on geff == 0, exactly like the historical g == 0 skip.
func (e *engine[T]) convGradsInto(x, w, gy *Tensor, pad, stride int, act Activation, mask []bool, gx, gw, gb *Tensor, d convDims) {
	xd, wdta := e.data(x), e.data(w)
	gyd, gxd, gwd, gbd := e.data(gy), e.data(gx), e.data(gw), e.data(gb)
	for fi := 0; fi < d.f; fi++ {
		var gbias T
		for oy := 0; oy < d.oh; oy++ {
			for ox := 0; ox < d.ow; ox++ {
				oi := (fi*d.oh+oy)*d.ow + ox
				g := gyd[oi]
				if act == ActReLU && !mask[oi] {
					g = 0
				}
				if g == 0 {
					continue
				}
				gbias += g
				iy0 := oy*stride - pad
				ix0 := ox*stride - pad
				for c := 0; c < d.cIn; c++ {
					for ky := 0; ky < d.kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= d.h {
							continue
						}
						xrow := xd[(c*d.h+iy)*d.w:]
						gxrow := gxd[(c*d.h+iy)*d.w:]
						wrow := wdta[((fi*d.cIn+c)*d.kh+ky)*d.kw:]
						gwrow := gwd[((fi*d.cIn+c)*d.kh+ky)*d.kw:]
						for kx := 0; kx < d.kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= d.w {
								continue
							}
							gxrow[ix] += g * wrow[kx]
							gwrow[kx] += g * xrow[ix]
						}
					}
				}
			}
		}
		gbd[fi] = gbias
	}
}

// convBwdCol is the fast convolution backward over the im2col rows: for each
// column-matrix row k it computes the weight-gradient column
// (gw[f][k] += <gyEff[f], cols[k]>) and the input-column gradient
// colsG[k] = Σ_f w[f][k]·gyEff[k] in one fused pass, keeping both streams
// resident in L1. The four-way accumulators regroup the dot-product sum, so
// only the fast (float32) engine may call this.
func convBwdCol[T Elem](wdta, gyEff, cols, colsG, gwd []T, d convDims) {
	n := d.ohw
	// One column row at a time: a paired variant (two k rows against the
	// same four gyEff loads) was measured slower here — twelve live scalars
	// plus eight accumulators spill on amd64 and cost more than the halved
	// gyEff traffic saves on these L2-resident shapes.
	for k := 0; k < d.ckk; k++ {
		// The [base:][:n] re-slices pin every row's length to n, so the
		// prover drops the per-element bounds checks in the inner loops.
		crow := cols[k*n:][:n]
		cgrow := colsG[k*n:][:n]
		for i := range cgrow {
			cgrow[i] = 0
		}
		fi := 0
		for ; fi+4 <= d.f; fi += 4 {
			g0r := gyEff[fi*n:][:n]
			g1r := gyEff[(fi+1)*n:][:n]
			g2r := gyEff[(fi+2)*n:][:n]
			g3r := gyEff[(fi+3)*n:][:n]
			w0 := wdta[fi*d.ckk+k]
			w1 := wdta[(fi+1)*d.ckk+k]
			w2 := wdta[(fi+2)*d.ckk+k]
			w3 := wdta[(fi+3)*d.ckk+k]
			var a0, a1, a2, a3 T
			for p, cv := range crow {
				g0, g1, g2, g3 := g0r[p], g1r[p], g2r[p], g3r[p]
				a0 += g0 * cv
				a1 += g1 * cv
				a2 += g2 * cv
				a3 += g3 * cv
				cgrow[p] += w0*g0 + w1*g1 + w2*g2 + w3*g3
			}
			gwd[fi*d.ckk+k] += a0
			gwd[(fi+1)*d.ckk+k] += a1
			gwd[(fi+2)*d.ckk+k] += a2
			gwd[(fi+3)*d.ckk+k] += a3
		}
		if fi < d.f {
			convBwdColTail(k, fi, wdta, gyEff, cols, colsG, gwd, d)
		}
	}
}

// convBwdColTail finishes im2col row k for the filters [fi0, d.f) left over
// after the four-wide blocks.
func convBwdColTail[T Elem](k, fi0 int, wdta, gyEff, cols, colsG, gwd []T, d convDims) {
	n := d.ohw
	crow := cols[k*n:][:n]
	cgrow := colsG[k*n:][:n]
	for fi := fi0; fi < d.f; fi++ {
		grow := gyEff[fi*n:][:n]
		wv := wdta[fi*d.ckk+k]
		var a0, a1, a2, a3 T
		p := 0
		for ; p+4 <= n; p += 4 {
			g0, g1, g2, g3 := grow[p], grow[p+1], grow[p+2], grow[p+3]
			a0 += g0 * crow[p]
			a1 += g1 * crow[p+1]
			a2 += g2 * crow[p+2]
			a3 += g3 * crow[p+3]
			cgrow[p] += wv * g0
			cgrow[p+1] += wv * g1
			cgrow[p+2] += wv * g2
			cgrow[p+3] += wv * g3
		}
		for ; p < n; p++ {
			g := grow[p]
			a0 += g * crow[p]
			cgrow[p] += wv * g
		}
		gwd[fi*d.ckk+k] += a0 + a1 + a2 + a3
	}
}

// convBwdW is convBwdCol without the input-gradient stream, used
// when the workspace's NoInputGrad hint marks gx as dead (the network's
// first layer). The per-(filter, k) accumulation order matches
// convBwdCol exactly — single accumulator over ascending p in the
// four-filter blocks, stride-four accumulators in the filter tail — so
// enabling the hint never changes a single weight-gradient bit.
func convBwdW[T Elem](gyEff, cols, gwd []T, d convDims) {
	n := d.ohw
	for k := 0; k < d.ckk; k++ {
		crow := cols[k*n:][:n]
		fi := 0
		for ; fi+4 <= d.f; fi += 4 {
			g0r := gyEff[fi*n:][:n]
			g1r := gyEff[(fi+1)*n:][:n]
			g2r := gyEff[(fi+2)*n:][:n]
			g3r := gyEff[(fi+3)*n:][:n]
			var a0, a1, a2, a3 T
			for p, cv := range crow {
				a0 += g0r[p] * cv
				a1 += g1r[p] * cv
				a2 += g2r[p] * cv
				a3 += g3r[p] * cv
			}
			gwd[fi*d.ckk+k] += a0
			gwd[(fi+1)*d.ckk+k] += a1
			gwd[(fi+2)*d.ckk+k] += a2
			gwd[(fi+3)*d.ckk+k] += a3
		}
		for ; fi < d.f; fi++ {
			grow := gyEff[fi*n:][:n]
			var a0, a1, a2, a3 T
			p := 0
			for ; p+4 <= n; p += 4 {
				a0 += grow[p] * crow[p]
				a1 += grow[p+1] * crow[p+1]
				a2 += grow[p+2] * crow[p+2]
				a3 += grow[p+3] * crow[p+3]
			}
			for ; p < n; p++ {
				a0 += grow[p] * crow[p]
			}
			gwd[fi*d.ckk+k] += a0 + a1 + a2 + a3
		}
	}
}

// col2im folds im2col column gradients back into the spatial input
// gradient. Every gx element receives its contributions in the fixed
// (ky, kx, oy, ox) order.
func col2im[T Elem](colsG, gxd []T, pad, stride int, d convDims) {
	for c := 0; c < d.cIn; c++ {
		for ky := 0; ky < d.kh; ky++ {
			for kx := 0; kx < d.kw; kx++ {
				k := (c*d.kh+ky)*d.kw + kx
				crow := colsG[k*d.ohw : (k+1)*d.ohw]
				for oy := 0; oy < d.oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= d.h {
						continue
					}
					gxrow := gxd[(c*d.h+iy)*d.w : (c*d.h+iy+1)*d.w]
					src := crow[oy*d.ow : (oy+1)*d.ow]
					for ox, v := range src {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= d.w {
							continue
						}
						gxrow[ix] += v
					}
				}
			}
		}
	}
}

// convGradsFast is the im2col convolution backward of the fast engine. It
// accumulates the weight and bias gradients directly into gwAcc/gbAcc (one
// IEEE-754 add of the same fresh value the staged float64 path performs) and
// returns gx — workspace-owned when ws is non-nil, freshly allocated
// otherwise, or nil when the workspace's NoInputGrad hint marks gx as dead.
// With a workspace it reuses the column matrix the matching Conv2DFused
// staged (the Backend contract requires that forward to have run); the
// plain path rebuilds the identical columns in scratch, so fused and
// composed results stay bit-for-bit equal.
func (e *engine[T]) convGradsFast(x, w, gy *Tensor, pad, stride int, act Activation, mask []bool, gwAcc, gbAcc *Tensor, ws *Workspace, d convDims) *Tensor {
	wdta, gyd := e.data(w), e.data(gy)
	gwd, gbd := e.data(gwAcc), e.data(gbAcc)
	skipGX := ws != nil && ws.NoInputGrad
	var gx *Tensor
	var gxd []T
	if !skipGX {
		if ws != nil {
			gx = ensureTensor(&ws.gx, e.dt, d.cIn, d.h, d.w)
		} else {
			gx = e.newT(d.cIn, d.h, d.w)
		}
		gx.Zero()
		gxd = e.data(gx)
	}

	// Stage the activation-masked upstream gradient, folding the bias
	// gradient (a per-filter row sum) into the same pass over gy.
	gyEff := gyd
	var gyBuf *[]T
	if act == ActReLU {
		if ws != nil {
			// Workspace slot, not the scratch pool: the fused steady state
			// alternates buffer sizes (f·ohw here, ckk·ohw below) across
			// layers, which defeats the single capacity-checked pool slot
			// and would allocate every step.
			gyEff = e.data(ensureTensor(&ws.gye, e.dt, d.f, d.ohw))
		} else {
			gyBuf = e.scratch.get(d.f * d.ohw)
			gyEff = *gyBuf
		}
		for fi := 0; fi < d.f; fi++ {
			grow := gyd[fi*d.ohw:][:d.ohw]
			erow := gyEff[fi*d.ohw:][:d.ohw]
			mrow := mask[fi*d.ohw:][:d.ohw]
			var s T
			// Value-select form (zero g, then store and add
			// unconditionally) so the compiler emits branch-free selects;
			// the masked +0.0 adds into s are bit-preserving, matching the
			// composed path where the standalone ReLU backward already
			// zeroed those entries.
			for j, g := range grow {
				if !mrow[j] {
					g = 0
				}
				erow[j] = g
				s += g
			}
			gbd[fi] += s
		}
	} else {
		for fi := 0; fi < d.f; fi++ {
			grow := gyEff[fi*d.ohw : (fi+1)*d.ohw]
			var s T
			for _, g := range grow {
				s += g
			}
			gbd[fi] += s
		}
	}

	var cols []T
	var colsBuf *[]T
	if ws != nil && ws.cols != nil && ws.cols.dt == e.dt && ws.cols.Size() == d.ckk*d.ohw {
		cols = e.data(ws.cols)
	} else {
		colsBuf = e.scratch.get(d.ckk * d.ohw)
		cols = *colsBuf
		im2colFill(cols, e.data(x), pad, stride, d)
	}
	if skipGX {
		convBwdW(gyEff, cols, gwd, d)
		if colsBuf != nil {
			e.scratch.put(colsBuf)
		}
		if gyBuf != nil {
			e.scratch.put(gyBuf)
		}
		return nil
	}
	var colsG []T
	var colsGBuf *[]T
	if ws != nil {
		colsG = e.data(ensureTensor(&ws.colsG, e.dt, d.ckk, d.ohw))
	} else {
		colsGBuf = e.scratch.get(d.ckk * d.ohw)
		colsG = *colsGBuf
	}
	convBwdCol(wdta, gyEff, cols, colsG, gwd, d)
	col2im(colsG, gxd, pad, stride, d)
	if colsGBuf != nil {
		e.scratch.put(colsGBuf)
	}
	if colsBuf != nil {
		e.scratch.put(colsBuf)
	}
	if gyBuf != nil {
		e.scratch.put(gyBuf)
	}
	return gx
}

// Conv2DGrads implements Backend.
func (e *engine[T]) Conv2DGrads(x, w, gy *Tensor, pad, stride int) (gx, gw, gb *Tensor, err error) {
	d, err := e.convGradsCheck(x, w, gy, pad, stride)
	if err != nil {
		return nil, nil, nil, err
	}
	gw = e.newT(d.f, d.cIn, d.kh, d.kw)
	gb = e.newT(d.f)
	if e.fast {
		gx = e.convGradsFast(x, w, gy, pad, stride, ActNone, nil, gw, gb, nil, d)
		return gx, gw, gb, nil
	}
	gx = e.newT(d.cIn, d.h, d.w)
	e.convGradsInto(x, w, gy, pad, stride, ActNone, nil, gx, gw, gb, d)
	return gx, gw, gb, nil
}

// Conv2DGradsFused implements Backend: Conv2DGrads with the upstream
// gradient masked through the activation recorded by Conv2DFused. The
// weight and bias gradients are staged in zeroed workspace scratch and then
// added into the caller's accumulators gwAcc/gbAcc — the same
// fresh-gradient-then-AddInPlace order as the historical layer code, so
// float64 summation order (and therefore golden bits) is preserved. The
// returned gx is workspace-owned.
func (e *engine[T]) Conv2DGradsFused(x, w, gy *Tensor, pad, stride int, act Activation, gwAcc, gbAcc *Tensor, ws *Workspace) (*Tensor, error) {
	if ws == nil {
		return nil, fmt.Errorf("tensor: Conv2DGradsFused needs a workspace")
	}
	d, err := e.convGradsCheck(x, w, gy, pad, stride)
	if err != nil {
		return nil, err
	}
	if err := e.check(gwAcc, gbAcc); err != nil {
		return nil, err
	}
	var mask []bool
	if act == ActReLU {
		mask = ws.mask
		if len(mask) != d.f*d.ohw {
			return nil, fmt.Errorf("tensor: Conv2DGradsFused mask %d, want %d (run the fused forward first)",
				len(mask), d.f*d.ohw)
		}
	}
	if e.fast {
		return e.convGradsFast(x, w, gy, pad, stride, act, mask, gwAcc, gbAcc, ws, d), nil
	}
	gx := ensureTensor(&ws.gx, e.dt, d.cIn, d.h, d.w)
	gwS := ensureTensor(&ws.gw, e.dt, d.f, d.cIn, d.kh, d.kw)
	gbS := ensureTensor(&ws.gb, e.dt, d.f)
	gx.Zero()
	gwS.Zero()
	e.convGradsInto(x, w, gy, pad, stride, act, mask, gx, gwS, gbS, d)
	if err := gwAcc.AddInPlace(gwS); err != nil {
		return nil, err
	}
	if err := gbAcc.AddInPlace(gbS); err != nil {
		return nil, err
	}
	return gx, nil
}

func poolCheck(x *Tensor, size int) (c, h, w int, err error) {
	if x.Dims() != 3 {
		return 0, 0, 0, fmt.Errorf("%w: MaxPool2D wants (C,H,W)", ErrShapeMismatch)
	}
	c, h, w = x.shape[0], x.shape[1], x.shape[2]
	if h%size != 0 || w%size != 0 {
		return 0, 0, 0, fmt.Errorf("%w: MaxPool2D %dx%d not divisible by %d", ErrBadShape, h, w, size)
	}
	return c, h, w, nil
}

func (e *engine[T]) maxPoolInto(x, out *Tensor, arg []int, size, c, h, w int) {
	oh, ow := h/size, w/size
	xd, od := e.data(x), e.data(out)
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := (ci*h+oy*size)*w + ox*size
				best := xd[bestIdx]
				for py := 0; py < size; py++ {
					for px := 0; px < size; px++ {
						idx := (ci*h+oy*size+py)*w + ox*size + px
						if xd[idx] > best {
							best = xd[idx]
							bestIdx = idx
						}
					}
				}
				o := (ci*oh+oy)*ow + ox
				od[o] = best
				arg[o] = bestIdx
			}
		}
	}
}

// MaxPool2D implements Backend.
func (e *engine[T]) MaxPool2D(x *Tensor, size int) (*Tensor, []int, error) {
	c, h, w, err := poolCheck(x, size)
	if err != nil {
		return nil, nil, err
	}
	if err := e.check(x); err != nil {
		return nil, nil, err
	}
	out := e.newT(c, h/size, w/size)
	arg := make([]int, out.Size())
	e.maxPoolInto(x, out, arg, size, c, h, w)
	return out, arg, nil
}

// MaxPool2DWS implements Backend: MaxPool2D with the output and argmax
// buffers staged in the workspace.
func (e *engine[T]) MaxPool2DWS(x *Tensor, size int, ws *Workspace) (*Tensor, []int, error) {
	if ws == nil {
		return nil, nil, fmt.Errorf("tensor: MaxPool2DWS needs a workspace")
	}
	c, h, w, err := poolCheck(x, size)
	if err != nil {
		return nil, nil, err
	}
	if err := e.check(x); err != nil {
		return nil, nil, err
	}
	out := ensureTensor(&ws.out, e.dt, c, h/size, w/size)
	arg := ws.ensureArg(out.Size())
	e.maxPoolInto(x, out, arg, size, c, h, w)
	return out, arg, nil
}

// MaxPool2DGrad implements Backend: routes gy back through the argmax
// indices.
func (e *engine[T]) MaxPool2DGrad(gy *Tensor, arg []int, inShape []int) (*Tensor, error) {
	if len(arg) != gy.Size() {
		return nil, fmt.Errorf("%w: MaxPool2DGrad arg %d vs gy %d", ErrShapeMismatch, len(arg), gy.Size())
	}
	if err := e.check(gy); err != nil {
		return nil, err
	}
	gx, err := NewOf(e.dt, inShape...)
	if err != nil {
		return nil, err
	}
	gyd, gxd := e.data(gy), e.data(gx)
	for i, idx := range arg {
		gxd[idx] += gyd[i]
	}
	return gx, nil
}

// MaxPool2DGradWS implements Backend: MaxPool2DGrad with gx staged in the
// workspace.
func (e *engine[T]) MaxPool2DGradWS(gy *Tensor, arg []int, inShape []int, ws *Workspace) (*Tensor, error) {
	if ws == nil {
		return nil, fmt.Errorf("tensor: MaxPool2DGradWS needs a workspace")
	}
	if len(arg) != gy.Size() {
		return nil, fmt.Errorf("%w: MaxPool2DGrad arg %d vs gy %d", ErrShapeMismatch, len(arg), gy.Size())
	}
	if err := e.check(gy); err != nil {
		return nil, err
	}
	if _, err := checkShape(inShape); err != nil {
		return nil, err
	}
	gx := ensureTensor(&ws.gx, e.dt, inShape...)
	gx.Zero()
	gyd, gxd := e.data(gy), e.data(gx)
	for i, idx := range arg {
		gxd[idx] += gyd[i]
	}
	return gx, nil
}

// ReLUFwd implements Backend: out = relu(x) staged in the workspace, with
// the pass-through mask recorded for ReLUBwd. Element semantics match the
// historical nn layer: mask = v > 0, non-positive values clamp to +0.0, NaN
// passes through unmasked. The kernel is element-wise with no reductions,
// so it runs inline on every engine.
func (e *engine[T]) ReLUFwd(x *Tensor, ws *Workspace) (*Tensor, error) {
	if ws == nil {
		return nil, fmt.Errorf("tensor: ReLUFwd needs a workspace")
	}
	if err := e.check(x); err != nil {
		return nil, err
	}
	out := ensureTensor(&ws.out, e.dt, x.shape...)
	mask := ws.ensureMask(x.Size())
	xd, od := e.data(x), e.data(out)
	for i, v := range xd {
		od[i] = v
		if v > 0 {
			mask[i] = true
		} else {
			mask[i] = false
			if v <= 0 {
				od[i] = 0
			}
		}
	}
	return out, nil
}

// ReLUBwd implements Backend: gx = gy masked through the ReLUFwd mask,
// staged in the workspace.
func (e *engine[T]) ReLUBwd(gy *Tensor, ws *Workspace) (*Tensor, error) {
	if ws == nil {
		return nil, fmt.Errorf("tensor: ReLUBwd needs a workspace")
	}
	if err := e.check(gy); err != nil {
		return nil, err
	}
	if len(ws.mask) != gy.Size() {
		return nil, fmt.Errorf("tensor: ReLUBwd mask %d, want %d (run ReLUFwd first)", len(ws.mask), gy.Size())
	}
	gx := ensureTensor(&ws.gx, e.dt, gy.shape...)
	gyd, gxd := e.data(gy), e.data(gx)
	for i, v := range gyd {
		if ws.mask[i] {
			gxd[i] = v
		} else {
			gxd[i] = 0
		}
	}
	return gx, nil
}

// Axpy implements Backend: y += a*x over raw float64 slices.
func (e *engine[T]) Axpy(a float64, x, y []float64) {
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale implements Backend: x *= a over a raw float64 slice.
func (e *engine[T]) Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// AxpyT implements Backend: y += a*x over tensors, dispatching on the
// tensors' own dtype (so optimizers can drive float64 global state and
// float32 model state through one backend). Float64 tensors take exactly
// the historical Axpy path.
func (e *engine[T]) AxpyT(a float64, x, y *Tensor) error {
	if err := x.sameTyped(y); err != nil {
		return err
	}
	if x.dt == F64 {
		e.Axpy(a, x.data, y.data)
		return nil
	}
	yf := y.f32
	af := float32(a)
	for i, v := range x.f32 {
		yf[i] += af * v
	}
	return nil
}

// ScaleT implements Backend: x *= a over a tensor, dispatching on its dtype.
func (e *engine[T]) ScaleT(a float64, x *Tensor) {
	if x.dt == F64 {
		e.Scale(a, x.data)
		return
	}
	xf := x.f32
	af := float32(a)
	for i := range xf {
		xf[i] *= af
	}
}
