// Package codec implements the wire codecs that shrink model-update
// payloads before they cross the network (DESIGN.md §8). A Codec maps a
// flat float64 vector — one weight-snapshot section, or a delta against a
// shared base — to wire bytes and back. All three codecs are fully
// deterministic: the same input always yields the same bytes, so encoded
// runs replay bit-identically on the virtual-time simulator and encoded
// payloads are safe re-send material (a re-encoded frozen model equals the
// first shipment).
//
// The three implementations trade fidelity for bandwidth:
//
//   - none: exact pass-through framing, 8 bytes per value. The reference
//     and the default; the fl layer bypasses encoding entirely for it.
//   - q8: deterministic per-vector min/max int8 quantization, ~1 byte per
//     value. Max absolute error is (max-min)/255.
//   - topk: top-k magnitude sparsification with index+value packing,
//     ~12·k bytes for k kept entries. Lossy in a structured way; pair it
//     with Residual (client-side error feedback) on repeated streams.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Canonical codec names, accepted by Canonical and New.
const (
	// None is the exact pass-through codec (the default).
	None = "none"
	// Q8 is deterministic per-vector min/max int8 quantization.
	Q8 = "q8"
	// TopK is top-k magnitude sparsification with index+value packing.
	TopK = "topk"
)

// DefaultTopKFraction is the fraction of entries the topk codec keeps.
const DefaultTopKFraction = 0.1

// ErrCorrupt reports wire bytes that do not decode under the codec's
// framing (truncated buffer, header/length mismatch, out-of-range index).
var ErrCorrupt = errors.New("codec: corrupt wire bytes")

// Codec converts one flat value vector to wire bytes and back. Encoding is
// deterministic; decoding rejects malformed bytes with an error wrapping
// ErrCorrupt (never a panic). Lossy codecs document their error bound; none
// is exact to the bit.
//
// AppendEncode and DecodeInto are the implementation; Encode and Decode are
// allocating conveniences over them. The codecs New returns hold no
// scratch, so one value may encode and decode on any number of goroutines
// at once; work vectors come from a process-wide stock (GetScratch).
type Codec interface {
	// Name returns the canonical codec name.
	Name() string
	// AppendEncode appends the wire form of vals to dst and returns the
	// extended slice (dst itself on error). vals is only read. Pass a nil
	// dst for bytes a message will own: a payload stays referenced until
	// it is delivered, so its backing array is never reused.
	AppendEncode(dst []byte, vals []float64) ([]byte, error)
	// DecodeInto reverses AppendEncode into dst. The length the header
	// claims is compared with len(dst) before anything is written or
	// allocated, so a peer's bytes cannot size an allocation; a mismatch
	// leaves dst untouched. Any other error leaves dst unspecified.
	DecodeInto(dst []float64, data []byte) error
	// Encode is AppendEncode(nil, vals).
	Encode(vals []float64) ([]byte, error)
	// Decode allocates the length the header claims and decodes into it.
	// It is for bytes this process trusts (its own, a test's): a topk
	// header can claim 2³² values in 28 bytes. Bytes from a peer go through
	// DecodeInto, sized by what the receiver expects.
	Decode(data []byte) ([]float64, error)
}

// names lists the canonical codec names in declaration order.
var names = []string{None, Q8, TopK}

// Names returns the accepted codec names, comma-separated, for usage
// strings and one-line validation errors.
func Names() string { return strings.Join(names, ", ") }

// Canonical resolves a codec name ("" means none) and rejects unknown
// ones. Two names that canonicalize equally select the same codec, so
// canonical names are safe dedup keys.
func Canonical(name string) (string, error) {
	switch name {
	case "", None:
		return None, nil
	case Q8:
		return Q8, nil
	case TopK:
		return TopK, nil
	}
	return "", fmt.Errorf("codec: unknown codec %q (allowed values: %s)", name, Names())
}

// New constructs the named codec ("" means none). The topk codec keeps
// DefaultTopKFraction of the entries; use NewTopK for a custom fraction.
func New(name string) (Codec, error) {
	canon, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	switch canon {
	case Q8:
		return q8{}, nil
	case TopK:
		return NewTopK(DefaultTopKFraction), nil
	}
	return none{}, nil
}

// ---------------------------------------------------------------------------
// Shared plumbing: the Decode wrapper, the length-first rule, work vectors.

// framing is what Decode needs from a codec: the validated length its
// header claims, and the decoder proper.
type framing interface {
	decodedLen(data []byte) (int, error)
	DecodeInto(dst []float64, data []byte) error
}

// decode is Decode for every codec.
func decode[C framing](c C, data []byte) ([]float64, error) {
	n, err := c.decodedLen(data)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	if err := c.DecodeInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

// grow extends dst by n bytes; tail is the extension, for the encoders to
// fill by offset.
func grow(dst []byte, n int) (all, tail []byte) {
	all = slices.Grow(dst, n)[:len(dst)+n]
	return all, all[len(dst):]
}

// checkLen is the length-first rule of DecodeInto.
func checkLen(name string, n, want int) error {
	if n != want {
		return fmt.Errorf("%w: %s: header says %d values, receiver expects %d", ErrCorrupt, name, n, want)
	}
	return nil
}

// floats is the stock of float64 work vectors. It belongs to the process,
// never to a codec value, a stream or a client: a retained section-sized
// vector per client would cost more live heap than the models do, and a
// buffer hung on a shared codec value would be a data race. sync.Pool
// keeps at most what concurrent encoders had out at once and drops it over
// two collections.
var floats sync.Pool

// GetScratch borrows a float64 work vector of length n (contents
// unspecified) from the process-wide stock; PutScratch returns it. The fl
// layer stages deltas in these so an encode allocates only its wire bytes.
func GetScratch(n int) *[]float64 {
	bp, ok := floats.Get().(*[]float64)
	if !ok || cap(*bp) < n {
		b := make([]float64, n)
		return &b
	}
	*bp = (*bp)[:n]
	return bp
}

// PutScratch returns a vector GetScratch lent. The caller keeps no
// reference to it.
func PutScratch(b *[]float64) { floats.Put(b) }

// ---------------------------------------------------------------------------
// none: exact framing.

// none frames values verbatim: an 8-byte count header followed by the
// IEEE-754 little-endian bits of every value. Round-trips are exact to the
// bit (NaN payloads included).
type none struct{}

func (none) Name() string { return None }

func (c none) Encode(vals []float64) ([]byte, error) { return c.AppendEncode(nil, vals) }
func (c none) Decode(data []byte) ([]float64, error) { return decode(c, data) }

func (none) AppendEncode(dst []byte, vals []float64) ([]byte, error) {
	dst, buf := grow(dst, 8+8*len(vals))
	binary.LittleEndian.PutUint64(buf, uint64(len(vals)))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8+8*i:], math.Float64bits(v))
	}
	return dst, nil
}

func (none) decodedLen(data []byte) (int, error) {
	if len(data) < 8 {
		return 0, fmt.Errorf("%w: none: %d-byte buffer, need a header", ErrCorrupt, len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)) || len(data) != int(8+8*n) {
		return 0, fmt.Errorf("%w: none: header says %d values for %d bytes", ErrCorrupt, n, len(data))
	}
	return int(n), nil
}

func (c none) DecodeInto(dst []float64, data []byte) error {
	n, err := c.decodedLen(data)
	if err == nil {
		err = checkLen(None, n, len(dst))
	}
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+8*i:]))
	}
	return nil
}

// ---------------------------------------------------------------------------
// q8: min/max int8 quantization.

// q8 quantizes each vector against its own [min, max] range to one byte
// per value: header count(8) + min(8) + max(8), then round((v-min)/scale)
// with scale = (max-min)/255. The mapping is deterministic and the decode
// error is at most (max-min)/255. Non-finite inputs are rejected — a NaN
// has no place on the quantization grid and would silently poison the
// error bound.
type q8 struct{}

func (q8) Name() string { return Q8 }

func (c q8) Encode(vals []float64) ([]byte, error) { return c.AppendEncode(nil, vals) }
func (c q8) Decode(data []byte) ([]float64, error) { return decode(c, data) }

func (q8) AppendEncode(dst []byte, vals []float64) ([]byte, error) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("codec: q8: non-finite value %v at index %d", v, i)
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(vals) == 0 {
		lo, hi = 0, 0
	}
	dst, buf := grow(dst, 24+len(vals))
	binary.LittleEndian.PutUint64(buf, uint64(len(vals)))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(hi))
	scale := (hi - lo) / 255
	for i, v := range vals {
		q := 0.0
		if scale > 0 {
			q = math.Round((v - lo) / scale)
		}
		if q < 0 {
			q = 0
		}
		if q > 255 {
			q = 255
		}
		buf[24+i] = byte(q)
	}
	return dst, nil
}

func (q8) decodedLen(data []byte) (int, error) {
	if len(data) < 24 {
		return 0, fmt.Errorf("%w: q8: %d-byte buffer, need a header", ErrCorrupt, len(data))
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)) || len(data) != int(24+n) {
		return 0, fmt.Errorf("%w: q8: header says %d values for %d bytes", ErrCorrupt, n, len(data))
	}
	return int(n), nil
}

func (c q8) DecodeInto(dst []float64, data []byte) error {
	n, err := c.decodedLen(data)
	if err == nil {
		err = checkLen(Q8, n, len(dst))
	}
	if err != nil {
		return err
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	if math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsNaN(hi) || math.IsInf(hi, 0) || hi < lo {
		return fmt.Errorf("%w: q8: range [%v, %v]", ErrCorrupt, lo, hi)
	}
	scale := (hi - lo) / 255
	for i := range dst {
		dst[i] = lo + float64(data[24+i])*scale
	}
	return nil
}

// ---------------------------------------------------------------------------
// topk: magnitude sparsification.

// topk keeps the k largest-magnitude entries of the vector and packs them,
// in ascending index order, as (uint32 index, float64 value) pairs behind
// a count(8)+k(8) header. Kept values round-trip exactly; everything else
// decodes to zero.
//
// Magnitude is a total order, and the order is part of the wire contract:
// entries rank by math.Float64bits(math.Abs(v)), ties go to the lower
// index. On every non-NaN float that is magnitude order (±0 tie, ±Inf on
// top); a NaN ranks above +Inf, NaNs among themselves by payload bits.
type topk struct {
	frac float64
}

// NewTopK returns a top-k codec keeping ceil(frac·n) entries (at least
// one for a non-empty vector). Fractions outside (0, 1] select
// DefaultTopKFraction.
func NewTopK(frac float64) Codec {
	if frac <= 0 || frac > 1 {
		frac = DefaultTopKFraction
	}
	return topk{frac: frac}
}

func (topk) Name() string { return TopK }

func (t topk) Encode(vals []float64) ([]byte, error) { return t.AppendEncode(nil, vals) }
func (t topk) Decode(data []byte) ([]float64, error) { return decode(t, data) }

func (t topk) k(n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(t.frac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// magKey is topk's rank of one value: its bits with the sign cleared.
func magKey(v float64) uint64 { return math.Float64bits(v) &^ (1 << 63) }

func (t topk) AppendEncode(dst []byte, vals []float64) ([]byte, error) {
	if len(vals) > math.MaxUint32 {
		return dst, fmt.Errorf("codec: topk: %d values exceed the uint32 index space", len(vals))
	}
	k := t.k(len(vals))
	dst, buf := grow(dst, 16+12*k)
	binary.LittleEndian.PutUint64(buf, uint64(len(vals)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(k))
	if k == 0 {
		return dst, nil
	}
	// Everything above the k-th largest key is kept, and so are the first
	// ties with it in index order: one ascending scan emits the entries
	// already sorted.
	thr, greater, _ := kthLargestKey(vals, k)
	ties := k - greater
	off := 16
	for i, v := range vals {
		key := magKey(v)
		if key < thr || (key == thr && ties == 0) {
			continue
		}
		if key == thr {
			ties--
		}
		binary.LittleEndian.PutUint32(buf[off:], uint32(i))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(v))
		off += 12
	}
	return dst, nil
}

// Radix-select geometry: the 63 key bits below the sign are seven 9-bit
// digits, most significant first.
const (
	digitBits = 9
	digitMask = 1<<digitBits - 1
)

// kthLargestKey returns the k-th largest magKey of vals (1 <= k <=
// len(vals)) and how many keys are strictly greater. It is a most-
// significant-digit radix select that moves no data: each pass histograms
// the next digit of the keys that share the prefix found so far and walks
// the buckets from the top to the one the k-th key falls in. Once that
// bucket is down to a handful, they are collected and sorted. Seven digits
// bound the work at 8·n key visits whatever the input — sorted, organ-pipe
// and all-equal vectors included, where a quickselect goes quadratic — and
// there is no scratch vector to own. visits counts them for the tests that
// hold the bound; gradient-like data needs two digits, so about 3·n.
func kthLargestKey(vals []float64, k int) (thr uint64, greater, visits int) {
	var (
		hist [2 << digitBits]int // upper half: keys off the prefix, so a pass has no branch to mispredict
		few  [128]uint64
		need = k // rank of the k-th key among those sharing thr's digits so far
	)
	for shift := 63 - digitBits; shift >= 0; shift -= digitBits {
		clear(hist[:])
		above := shift + digitBits
		for _, v := range vals {
			key := magKey(v)
			off := (key ^ thr) >> above // non-zero off the prefix
			hist[key>>shift&digitMask|(off|-off)>>63<<digitBits]++
		}
		visits += len(vals)
		d := digitMask
		for ; hist[d] < need; d-- {
			need -= hist[d]
			greater += hist[d]
		}
		thr |= uint64(d) << shift
		if hist[d] > len(few) {
			continue
		}
		cand := few[:0]
		for _, v := range vals {
			if key := magKey(v); key>>shift == thr>>shift {
				cand = append(cand, key)
			}
		}
		visits += len(vals)
		slices.Sort(cand)
		thr = cand[len(cand)-need]
		for _, key := range cand[len(cand)-need:] {
			if key > thr {
				greater++
			}
		}
		break
	}
	return thr, greater, visits
}

// header validates topk framing and returns the counts it claims.
func (topk) header(data []byte) (n, k int, err error) {
	if len(data) < 16 {
		return 0, 0, fmt.Errorf("%w: topk: %d-byte buffer, need a header", ErrCorrupt, len(data))
	}
	un := binary.LittleEndian.Uint64(data)
	uk := binary.LittleEndian.Uint64(data[8:])
	// No encoder writes k = 0 for a non-empty vector; refusing it keeps a
	// bare 16-byte header from claiming any length it likes.
	if un > math.MaxUint32 || uk > un || (uk == 0) != (un == 0) || uint64(len(data)) != 16+12*uk {
		return 0, 0, fmt.Errorf("%w: topk: header n=%d k=%d for %d bytes", ErrCorrupt, un, uk, len(data))
	}
	return int(un), int(uk), nil
}

func (t topk) decodedLen(data []byte) (int, error) {
	n, _, err := t.header(data)
	return n, err
}

func (t topk) DecodeInto(dst []float64, data []byte) error {
	n, k, err := t.header(data)
	if err == nil {
		err = checkLen(TopK, n, len(dst))
	}
	if err != nil {
		return err
	}
	clear(dst)
	for off := 16; k > 0; k, off = k-1, off+12 {
		i := binary.LittleEndian.Uint32(data[off:])
		if uint64(i) >= uint64(n) {
			return fmt.Errorf("%w: topk: index %d out of range %d", ErrCorrupt, i, n)
		}
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off+4:]))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Residual: client-side error feedback.

// Residual wraps a lossy codec with error feedback for a repeated stream
// of vectors (one weight section across rounds): each encode first adds
// the residual the previous round failed to transmit, then retains the new
// residual (input minus what the receiver will decode). Exact codecs pass
// through with a zero residual. Residual implements Codec, so it drops in
// wherever a plain codec does; it is not safe for concurrent use — each
// sender stream owns its own Residual and discards the whole value to
// reset (a crashed client's streams are rebuilt from scratch). The
// residual is the only state it keeps; work vectors are borrowed.
type Residual struct {
	inner Codec
	res   []float64
}

// NewResidual wraps c with error-feedback state.
func NewResidual(c Codec) *Residual { return &Residual{inner: c} }

var _ Codec = (*Residual)(nil)

// Name returns the inner codec's name — the wire format is unchanged.
func (r *Residual) Name() string { return r.inner.Name() }

// Encode is AppendEncode(nil, vals).
func (r *Residual) Encode(vals []float64) ([]byte, error) { return r.AppendEncode(nil, vals) }

// AppendEncode adds the accumulated residual, encodes through the inner
// codec, and retains the new residual. A length change (a different
// section) resets the state; an input the inner codec rejects leaves it as
// it was.
func (r *Residual) AppendEncode(dst []byte, vals []float64) ([]byte, error) {
	if len(r.res) != len(vals) {
		r.res = make([]float64, len(vals))
	}
	bp := GetScratch(len(vals))
	defer PutScratch(bp)
	in := *bp
	for i, v := range vals {
		in[i] = v + r.res[i]
	}
	start := len(dst)
	out, err := r.inner.AppendEncode(dst, in)
	if err != nil {
		return dst, err
	}
	// The old residual is spent once the encode succeeded, so its memory
	// takes the self-decode: res = in - decoded, in place.
	if err := r.inner.DecodeInto(r.res, out[start:]); err != nil {
		clear(r.res)
		return dst, fmt.Errorf("codec: residual self-decode: %w", err)
	}
	for i, v := range in {
		r.res[i] = v - r.res[i]
	}
	return out, nil
}

// Decode delegates to the inner codec (decoding is stateless).
func (r *Residual) Decode(data []byte) ([]float64, error) { return r.inner.Decode(data) }

// DecodeInto delegates to the inner codec.
func (r *Residual) DecodeInto(dst []float64, data []byte) error {
	return r.inner.DecodeInto(dst, data)
}
