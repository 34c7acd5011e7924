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
// one fixed accumulation order per output element. Both engines run the same
// kernels, which add, for every output element, the terms of the historical
// hand-written kernels in their order, one rounded operation each: the
// float64 engine stays bit-identical to the pre-generic golden runs, and
// both are held by bit pattern to the reference loops. The Go specification
// does allow a compiler to fuse x*y + z into one rounding; gc does so on
// arm64 and at GOAMD64=v3, not at amd64's default GOAMD64=v1, which is
// therefore what the goldens are pinned for. A left-associated chain
// c + w0·x0 + w1·x1 offers the compiler the same products feeding the same
// adds as c += w0·x0; c += w1·x1, so it fuses exactly where the statement
// form would.
//
// Where a fused kernel visits terms the direct one skips — the zero padding
// im2col makes explicit, gradients a ReLU masked — those terms are ±0.0 (for
// finite operands) added to accumulators that can never themselves be -0.0
// (they start from +0.0 or a bias and IEEE-754 addition only yields -0.0 from
// two -0.0 operands), so x + 0.0 == x bit-for-bit along the whole reduction.
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
	// finish applies the activation to one completed sum. Same element
	// semantics as the standalone ReLU layer: mask = s > 0, non-positive
	// values clamp to +0.0, NaN passes through unmasked.
	finish := func(o int, s T) {
		if act == ActReLU {
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
	// Four output rows per pass: each sum is still its own bias-first chain
	// over ascending i, but four independent chains overlap where one alone
	// waits out the add latency at every step, and x is loaded once for four.
	o := 0
	for ; o+4 <= out; o += 4 {
		r0 := wd[o*in:][:in]
		r1 := wd[(o+1)*in:][:in]
		r2 := wd[(o+2)*in:][:in]
		r3 := wd[(o+3)*in:][:in]
		var s0, s1, s2, s3 T
		if bd != nil {
			s0, s1, s2, s3 = bd[o], bd[o+1], bd[o+2], bd[o+3]
		}
		for i, v := range xd[:in] {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		finish(o, s0)
		finish(o+1, s1)
		finish(o+2, s2)
		finish(o+3, s3)
	}
	for ; o < out; o++ {
		row := wd[o*in:][:in]
		var s T
		if bd != nil {
			s = bd[o]
		}
		for i, v := range xd[:in] {
			s += row[i] * v
		}
		finish(o, s)
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
	e.denseBackwardInto(w, x, gy, ActNone, nil, gw, gb, gx, out, in)
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
	e.denseBackwardInto(w, x, gy, act, mask, gw, gb, gx, out, in)
	return gx, nil
}

// denseBackwardInto is the shared dense backward kernel. The masked upstream
// gradient geff[o] (gy[o], or 0 where the fused ReLU clamped) reproduces the
// exact dataflow of a standalone ReLU backward followed by the plain kernel:
// gb accumulates geff even when zero (adding +0.0 is bit-preserving) and the
// remaining work skips on geff == 0.
func (e *engine[T]) denseBackwardInto(w, x, gy *Tensor, act Activation, mask []bool, gw, gb, gx *Tensor, out, in int) {
	wd, xd := e.data(w), e.data(x)
	gyd, gxd, gwd, gbd := e.data(gy), e.data(gx), e.data(gw), e.data(gb)
	geff := func(o int) T {
		if act == ActReLU && !mask[o] {
			return 0
		}
		return gyd[o]
	}
	xd, gxd = xd[:in], gxd[:in]
	for o := 0; o < out; {
		g := geff(o)
		gbd[o] += g
		if g == 0 {
			o++
			continue
		}
		row := wd[o*in:][:in]
		grow := gwd[o*in:][:in]
		var g1 T
		if o+1 < out {
			g1 = geff(o + 1)
		}
		if g1 == 0 {
			for i, v := range xd {
				grow[i] += g * v
				gxd[i] += g * row[i]
			}
			o++
			continue
		}
		// Two live rows per pass: x is loaded once for both outer-product
		// rows and gx takes both terms in one load and store, as the
		// left-associated chain that adds row o's term and then row o+1's
		// exactly like two passes would.
		gbd[o+1] += g1
		row1 := wd[(o+1)*in:][:in]
		grow1 := gwd[(o+1)*in:][:in]
		for i, v := range xd {
			grow[i] += g * v
			grow1[i] += g1 * v
			gxd[i] = gxd[i] + g*row[i] + g1*row1[i]
		}
		o += 2
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

// im2colMul multiplies the (f)×(ckk) kernel matrix with cols into out, each
// output row seeded by the filter bias, optionally applying the fused
// activation to the finished rows. It is the exact (non-reassociating)
// product: every output element receives bias, then w[k]·cols[k] for
// ascending k, one rounded add per tap, zero weights skipped — the order of
// the historical one-tap-per-pass loop. Four taps are folded per pass as the
// left-associated chain c + w0·x0 + w1·x1 + w2·x2 + w3·x3, which Go
// evaluates as the same four adds in the same order as four `+=` statements
// while loading and storing c once; filters advance in pairs so each loaded
// column element feeds two rows. A four-tap block holding a zero weight
// takes the one-tap loop with its skip, so the chain never adds a term the
// historical loop left out.
func im2colMul[T Elem](cols, wdta, bd, od []T, act Activation, mask []bool, d convDims) {
	n := d.ohw
	fi := 0
	for ; fi+2 <= d.f; fi += 2 {
		crowA := od[fi*n:][:n]
		crowB := od[(fi+1)*n:][:n]
		var ba, bb T
		if bd != nil {
			ba, bb = bd[fi], bd[fi+1]
		}
		for j := range crowA {
			crowA[j] = ba
			crowB[j] = bb
		}
		wrowA := wdta[fi*d.ckk:][:d.ckk]
		wrowB := wdta[(fi+1)*d.ckk:][:d.ckk]
		k := 0
		for ; k+4 <= d.ckk; k += 4 {
			wa0, wa1, wa2, wa3 := wrowA[k], wrowA[k+1], wrowA[k+2], wrowA[k+3]
			wb0, wb1, wb2, wb3 := wrowB[k], wrowB[k+1], wrowB[k+2], wrowB[k+3]
			if wa0 == 0 || wa1 == 0 || wa2 == 0 || wa3 == 0 ||
				wb0 == 0 || wb1 == 0 || wb2 == 0 || wb3 == 0 {
				for t := k; t < k+4; t++ {
					axpySkipZero(wrowA[t], cols[t*n:][:n], crowA)
					axpySkipZero(wrowB[t], cols[t*n:][:n], crowB)
				}
				continue
			}
			c0 := cols[k*n:][:n]
			c1 := cols[(k+1)*n:][:n]
			c2 := cols[(k+2)*n:][:n]
			c3 := cols[(k+3)*n:][:n]
			for j := range crowA {
				cv0, cv1, cv2, cv3 := c0[j], c1[j], c2[j], c3[j]
				crowA[j] = crowA[j] + wa0*cv0 + wa1*cv1 + wa2*cv2 + wa3*cv3
				crowB[j] = crowB[j] + wb0*cv0 + wb1*cv1 + wb2*cv2 + wb3*cv3
			}
		}
		for ; k < d.ckk; k++ {
			axpySkipZero(wrowA[k], cols[k*n:][:n], crowA)
			axpySkipZero(wrowB[k], cols[k*n:][:n], crowB)
		}
		if act == ActReLU {
			reluRow(crowA, mask[fi*n:][:n])
			reluRow(crowB, mask[(fi+1)*n:][:n])
		}
	}
	if fi < d.f {
		// An odd last filter (no architecture in the tree has one) takes
		// the one-tap loop throughout.
		crow := od[fi*n:][:n]
		var bias T
		if bd != nil {
			bias = bd[fi]
		}
		for j := range crow {
			crow[j] = bias
		}
		for k, wv := range wdta[fi*d.ckk:][:d.ckk] {
			axpySkipZero(wv, cols[k*n:][:n], crow)
		}
		if act == ActReLU {
			reluRow(crow, mask[fi*n:][:n])
		}
	}
}

// axpySkipZero is one tap of the exact product: y += a·x, or nothing at all
// for a zero weight (the historical kernel's skip). len(y) must equal len(x).
func axpySkipZero[T Elem](a T, x, y []T) {
	if a == 0 {
		return
	}
	y = y[:len(x)]
	for j, v := range x {
		y[j] += a * v
	}
}

// reluRow applies the fused ReLU to one finished output row with the element
// semantics of the standalone layer: mask = v > 0, non-positive values clamp
// to +0.0, NaN passes through unmasked.
func reluRow[T Elem](row []T, mask []bool) {
	mask = mask[:len(row)]
	for j, v := range row {
		mask[j] = v > 0
		row[j] = pick(!(v <= 0), v)
	}
}

// pick returns v if keep and +0.0 otherwise, as an indexed load rather than
// a branch: the compiler has no conditional move for floats, and a branch on
// a ReLU mask — half taken, in no pattern — mispredicts on every other
// element, which costs more than the arithmetic around it.
func pick[T Elem](keep bool, v T) T {
	return [2]T{0, v}[b2i(keep)]
}

// b2i is 1 for true and 0 for false; it compiles to a flag move.
func b2i(c bool) int {
	if c {
		return 1
	}
	return 0
}

// Conv2D implements Backend with the direct nested-loop kernel, the
// reference Conv2DFused is held to.
func (e *engine[T]) Conv2D(x, w, b *Tensor, pad, stride int) (*Tensor, error) {
	d, err := e.convCheck(x, w, b, pad, stride)
	if err != nil {
		return nil, err
	}
	out := e.newT(d.f, d.oh, d.ow)
	e.conv2DDirect(x, w, b, out, pad, stride, d)
	return out, nil
}

// Conv2DFused implements Backend: Conv2D with the activation applied in the
// same pass, the output and im2col matrix staged in the workspace, and (for
// ActReLU) the pass-through mask recorded for Conv2DGradsFused. The product
// (im2colMul) is exact, and the layer hot path performs no allocations in
// steady state.
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
	im2colMul(cols, e.data(w), bd, e.data(out), act, mask, d)
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

// convGradsInto computes conv gradients into zeroed gxd/gwd and into gbd. The
// masked upstream gradient geff (gy, or 0 where the fused ReLU clamped)
// replicates a standalone ReLU backward followed by the plain kernel: work
// skips entirely on geff == 0, exactly like the historical g == 0 skip. It is
// the reference the sweeps (convGradsSweep) are held to, and what a strided
// convolution still runs.
func convGradsInto[T Elem](xd, wdta, gyd []T, pad, stride int, mask []bool, gxd, gwd, gbd []T, d convDims) {
	for fi := 0; fi < d.f; fi++ {
		var gbias T
		for oy := 0; oy < d.oh; oy++ {
			for ox := 0; ox < d.ow; ox++ {
				oi := (fi*d.oh+oy)*d.ow + ox
				g := gyd[oi]
				if mask != nil && !mask[oi] {
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

// convGradW adds two filters' weight gradients, gw[k] += <g, cols[k]> for
// every column row k, each dot product one accumulator from +0.0 over
// ascending position. Two filters against two column rows per pass: four
// independent add chains overlap where one alone waits out the add latency
// at every step, and each loaded element feeds two products. An odd last
// column row is paired with itself and its twin discarded; so is an odd last
// filter, which the caller passes twice (gw1 == nil).
func convGradW[T Elem](g0r, g1r, cols, gw0, gw1 []T) {
	n, ckk := len(g0r), len(gw0)
	g1r = g1r[:n]
	for k0 := 0; k0 < ckk; k0 += 2 {
		k1 := min(k0+1, ckk-1)
		c0r := cols[k0*n:][:n]
		c1r := cols[k1*n:][:n]
		var a00, a01, a10, a11 T
		for p, c0 := range c0r {
			c1 := c1r[p]
			g0, g1 := g0r[p], g1r[p]
			a00 += g0 * c0
			a01 += g0 * c1
			a10 += g1 * c0
			a11 += g1 * c1
		}
		gw0[k0] += a00
		if k1 != k0 {
			gw0[k1] += a01
		}
		if gw1 == nil {
			continue
		}
		gw1[k0] += a10
		if k1 != k0 {
			gw1[k1] += a11
		}
	}
}

// convGradsSweep is the fused convolution backward for unit stride:
// convGradsInto's sums, term for term and in convGradsInto's order,
// computed as long contiguous sweeps instead of a scatter per output pixel.
// Filters go through in pairs, ascending:
//
//   - The pair's masked gradient rows are staged, branch-free, with gb's row
//     sum riding the same pass.
//   - gw[f][k] is the dot product of gradient row f with column row k of the
//     im2col matrix the forward left in ws.cols: one accumulator from +0.0
//     over ascending position, which is the order in which the scatter's
//     output pixels reach gwrow[kx] (convGradW).
//   - gx accumulates in a zero-padded plane of row stride pw = w+2·pad per
//     channel, against the gradient row restaged at the same stride. There a
//     tap (ky, kx) moves every output pixel by one flat offset ky·pw+kx, so
//     a filter row is one sweep over the plane,
//     dst[i] = dst[i] + g[i-kx]·w[kx] for descending kx as one
//     left-associated chain, rather than kw·oh row updates of length ow.
//     Taps run in descending (ky, kx) because for a fixed input cell
//     descending tap is ascending (oy, ox), the order the scatter reaches it.
//
// What the sweeps add that the scatter skipped — masked gradients, padding,
// the gaps between restaged rows — are ±0.0 terms (for finite operands) into
// accumulators that start at +0.0 and so can never be -0.0: every sum keeps
// its bits (DESIGN.md §2 rule 2). All staging is one buffer from the
// engine's scratch stock, none of it a workspace slot.
func (e *engine[T]) convGradsSweep(x, w, gy *Tensor, pad int, mask []bool, gwAcc, gbAcc *Tensor, ws *Workspace, d convDims) *Tensor {
	const chain = 3 // taps folded into one sweep
	wdta, gyd := e.data(w), e.data(gy)
	gwd, gbd := e.data(gwAcc), e.data(gbAcc)
	n := d.ohw
	pw := d.w + 2*pad
	plane := (d.h + 2*pad) * pw
	span := d.oh * pw // plane cells one filter row's sweep covers
	// The restaged gradient row: kw-1 zeros, so the chain can read behind
	// the first pixel; oh rows at stride pw, gaps zero; chain-1 zeros, so a
	// chain's unused taps (weight zero) can read past the last.
	lead := d.kw - 1
	glen := lead + span + chain - 1
	skipGX := ws.NoInputGrad
	haveCols := ws.cols != nil && ws.cols.dt == e.dt && ws.cols.Size() == d.ckk*n

	size := 2 * n
	if !skipGX {
		size += glen + d.cIn*plane
	}
	if !haveCols {
		size += d.ckk * n
	}
	buf := e.scratch.get(size)
	defer e.scratch.put(buf)
	pair, rest := (*buf)[:2*n], (*buf)[2*n:]
	var gpad, planes []T
	if !skipGX {
		gpad, planes, rest = rest[:glen], rest[glen:][:d.cIn*plane], rest[glen+d.cIn*plane:]
		// Every filter overwrites the same pixel cells of gpad; what lies
		// between them is zeroed once.
		for i := range gpad {
			gpad[i] = 0
		}
		for i := range planes {
			planes[i] = 0
		}
	}
	var cols []T
	if haveCols {
		cols = e.data(ws.cols)
	} else {
		cols = rest[:d.ckk*n]
		im2colFill(cols, e.data(x), pad, 1, d)
	}

	for f0 := 0; f0 < d.f; f0 += 2 {
		f1 := min(f0+2, d.f)
		for fi := f0; fi < f1; fi++ {
			grow := gyd[fi*n:][:n]
			erow := pair[(fi-f0)*n:][:n]
			var s T
			if mask == nil {
				for j, g := range grow {
					erow[j] = g
					s += g
				}
			} else {
				mrow := mask[fi*n:][:n]
				for j, g := range grow {
					g = pick(mrow[j], g)
					erow[j] = g
					s += g
				}
			}
			gbd[fi] += s
		}
		if f1-f0 == 2 {
			convGradW(pair[:n], pair[n:], cols, gwd[f0*d.ckk:][:d.ckk], gwd[(f0+1)*d.ckk:][:d.ckk])
		} else {
			convGradW(pair[:n], pair[:n], cols, gwd[f0*d.ckk:][:d.ckk], nil)
		}
		if skipGX {
			continue
		}
		for fi := f0; fi < f1; fi++ {
			erow := pair[(fi-f0)*n:][:n]
			for oy := 0; oy < d.oh; oy++ {
				copy(gpad[lead+oy*pw:][:d.ow], erow[oy*d.ow:])
			}
			for c := 0; c < d.cIn; c++ {
				for ky := d.kh - 1; ky >= 0; ky-- {
					dst := planes[c*plane+ky*pw:][:span]
					wrow := wdta[((fi*d.cIn+c)*d.kh+ky)*d.kw:][:d.kw]
					for hi := d.kw - 1; hi >= 0; hi -= chain {
						// Taps hi, hi-1, hi-2 read gpad at offsets 0, 1, 2
						// from lead-hi: a sliding window — carry two, load
						// one.
						var wa, wb, wc T
						wa = wrow[hi]
						if hi >= 1 {
							wb = wrow[hi-1]
						}
						if hi >= 2 {
							wc = wrow[hi-2]
						}
						at := lead - hi
						ga, gb, next := gpad[at], gpad[at+1], gpad[at+2:][:span]
						for i := range dst {
							gc := next[i]
							dst[i] = dst[i] + ga*wa + gb*wb + gc*wc
							ga, gb = gb, gc
						}
					}
				}
			}
		}
	}
	if skipGX {
		return nil
	}
	gx := ensureTensor(&ws.gx, e.dt, d.cIn, d.h, d.w)
	gxd := e.data(gx)
	for c := 0; c < d.cIn; c++ {
		for iy := 0; iy < d.h; iy++ {
			copy(gxd[(c*d.h+iy)*d.w:][:d.w], planes[c*plane+(iy+pad)*pw+pad:])
		}
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
	gx = e.newT(d.cIn, d.h, d.w)
	convGradsInto(e.data(x), e.data(w), e.data(gy), pad, stride, nil, e.data(gx), e.data(gw), e.data(gb), d)
	return gx, gw, gb, nil
}

// Conv2DGradsFused implements Backend: Conv2DGrads with the upstream
// gradient masked through the activation recorded by Conv2DFused. The
// weight and bias gradients are computed fresh and then added into the
// caller's accumulators gwAcc/gbAcc — the same fresh-gradient-then-add
// order as the historical layer code, so summation order (and therefore the
// float64 golden bits) is preserved. The returned gx is workspace-owned,
// or nil when the workspace's NoInputGrad hint marks it dead.
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
	if gwAcc.Size() != d.f*d.ckk || gbAcc.Size() != d.f {
		return nil, fmt.Errorf("%w: Conv2DGradsFused accumulators gw=%d gb=%d for %d filters of %d taps",
			ErrShapeMismatch, gwAcc.Size(), gbAcc.Size(), d.f, d.ckk)
	}
	var mask []bool
	if act == ActReLU {
		mask = ws.mask
		if len(mask) != d.f*d.ohw {
			return nil, fmt.Errorf("tensor: Conv2DGradsFused mask %d, want %d (run the fused forward first)",
				len(mask), d.f*d.ohw)
		}
	}
	if stride == 1 && d.oh == d.h+2*pad-d.kh+1 && d.ow == d.w+2*pad-d.kw+1 {
		return e.convGradsSweep(x, w, gy, pad, mask, gwAcc, gbAcc, ws, d), nil
	}
	// No architecture in the tree strides, so a strided convolution keeps
	// the reference scatter, its fresh gradients staged in scratch.
	gx := ensureTensor(&ws.gx, e.dt, d.cIn, d.h, d.w)
	gx.Zero()
	buf := e.scratch.get(d.f*d.ckk + d.f)
	defer e.scratch.put(buf)
	gwS, gbS := (*buf)[:d.f*d.ckk], (*buf)[d.f*d.ckk:]
	for i := range gwS {
		gwS[i] = 0
	}
	convGradsInto(e.data(x), e.data(w), e.data(gy), pad, stride, mask, e.data(gx), gwS, gbS, d)
	gwd, gbd := e.data(gwAcc), e.data(gbAcc)
	for i, v := range gwS {
		gwd[i] += v
	}
	for i, v := range gbS {
		gbd[i] += v
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

// maxPoolInto scans each window in (py, px) order and keeps the first
// strictly greatest element (NaN never wins a comparison). The running best
// is carried as its index alone and moved by a mask instead of a branch:
// which cell of a ReLU'd map is largest has no pattern to predict.
func (e *engine[T]) maxPoolInto(x, out *Tensor, arg []int, size, c, h, w int) {
	oh, ow := h/size, w/size
	xd, od := e.data(x), e.data(out)
	o := 0
	for r := 0; r < c*oh; r++ {
		for ox := 0; ox < ow; ox++ {
			corner := r*size*w + ox*size
			best := corner
			for py := 0; py < size; py++ {
				row := corner + py*w
				for idx := row; idx < row+size; idx++ {
					best += (idx - best) & -b2i(xd[idx] > xd[best])
				}
			}
			od[o] = xd[best]
			arg[o] = best
			o++
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
