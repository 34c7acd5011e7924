package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// valsFromBytes reinterprets fuzz bytes as a float64 vector (8 bytes per
// value, trailing remainder ignored), so the fuzzer explores the full bit
// space including NaNs, infinities, and denormals.
func valsFromBytes(data []byte) []float64 {
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out
}

// finite replaces non-finite values so the lossy-codec invariants (which
// only hold on the quantization grid) are testable on arbitrary inputs.
func finite(vals []float64) []float64 {
	out := make([]float64, len(vals))
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		// Extreme magnitudes overflow (max-min) to +Inf; clamp into a range
		// where the quantization arithmetic stays finite.
		out[i] = math.Max(-1e150, math.Min(1e150, v))
	}
	return out
}

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 8))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	buf := make([]byte, 64)
	for i, v := range []float64{0, 1.5, -2.25, 1e300, -1e-300, math.NaN(), math.Inf(1), math.Copysign(0, -1)} {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	f.Add(buf)
}

// FuzzNoneRoundTrip: the pass-through codec must round-trip every vector
// exactly, bit for bit.
func FuzzNoneRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := valsFromBytes(raw)
		c, _ := New(None)
		data, err := c.Encode(vals)
		if err != nil {
			t.Fatalf("none rejected a vector: %v", err)
		}
		dec, err := c.Decode(data)
		if err != nil {
			t.Fatalf("none failed to decode its own bytes: %v", err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("decoded %d values, want %d", len(dec), len(vals))
		}
		for i := range vals {
			if math.Float64bits(dec[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("index %d: %x != %x", i, math.Float64bits(dec[i]), math.Float64bits(vals[i]))
			}
		}
	})
}

// FuzzQ8RoundTrip: quantization must stay within the documented error
// bound (max-min)/255 on finite vectors and reject non-finite ones.
func FuzzQ8RoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, _ := New(Q8)
		if _, err := c.Encode(valsFromBytes(raw)); err != nil {
			// Non-finite inputs are rejected by contract; the clean error is
			// the invariant.
			_ = err
		}
		vals := finite(valsFromBytes(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		data, err := c.Encode(vals)
		if err != nil {
			t.Fatalf("q8 rejected a finite vector: %v", err)
		}
		dec, err := c.Decode(data)
		if err != nil {
			t.Fatalf("q8 failed to decode its own bytes: %v", err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("decoded %d values, want %d", len(dec), len(vals))
		}
		if len(vals) == 0 {
			return
		}
		bound := (hi - lo) / 255
		for i := range vals {
			if e := math.Abs(dec[i] - vals[i]); e > bound*(1+1e-9)+1e-300 {
				t.Fatalf("index %d: error %v exceeds bound %v", i, e, bound)
			}
		}
	})
}

// FuzzTopKRoundTrip: the k largest-magnitude entries must survive exactly,
// the decoded length must match the header, and at most k entries may be
// non-zero.
func FuzzTopKRoundTrip(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		vals := finite(valsFromBytes(raw))
		c, _ := New(TopK)
		data, err := c.Encode(vals)
		if err != nil {
			t.Fatalf("topk rejected a vector: %v", err)
		}
		dec, err := c.Decode(data)
		if err != nil {
			t.Fatalf("topk failed to decode its own bytes: %v", err)
		}
		if len(dec) != len(vals) {
			t.Fatalf("decoded %d values, want header length %d", len(dec), len(vals))
		}
		if len(vals) == 0 {
			return
		}
		k := int(math.Ceil(DefaultTopKFraction * float64(len(vals))))
		kept := 0
		var minKeptMag float64 = math.Inf(1)
		for i, v := range dec {
			if v != 0 {
				kept++
				if math.Float64bits(v) != math.Float64bits(vals[i]) {
					t.Fatalf("kept entry %d mutated: %v != %v", i, v, vals[i])
				}
				minKeptMag = math.Min(minKeptMag, math.Abs(v))
			}
		}
		if kept > k {
			t.Fatalf("decoded %d non-zero entries, want at most k=%d", kept, k)
		}
		// Every dropped entry must be no larger in magnitude than the
		// smallest kept one — i.e. the kept set is a top-k set. (Zeros can
		// be "kept" invisibly, so only check when something was kept.)
		if kept > 0 {
			for i, v := range vals {
				if dec[i] == 0 && v != 0 && math.Abs(v) > minKeptMag {
					t.Fatalf("dropped |%v| at %d though the smallest kept magnitude is %v",
						v, i, minKeptMag)
				}
			}
		}
	})
}

// FuzzTopKMatchesSortReference: on NaN-free input the radix select emits
// the bytes of the sort it replaced, at any fraction. (With a NaN the sort
// had no defined answer; TestTopKNaNOrder pins the select's.)
func FuzzTopKMatchesSortReference(f *testing.F) {
	for _, frac := range []byte{0, 1, 25, 128, 255} {
		f.Add(frac, []byte{})
		f.Add(frac, make([]byte, 64))
		buf := make([]byte, 0, 96)
		for _, v := range []float64{0, 1.5, -1.5, math.Inf(-1), math.Copysign(0, -1), 5e-324, -5e-324, 1.5, math.MaxFloat64, 1e-300, -1.5, math.Inf(1)} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		f.Add(frac, buf)
	}
	f.Fuzz(func(t *testing.T, frac byte, raw []byte) {
		vals := valsFromBytes(raw)
		for i, v := range vals {
			if math.IsNaN(v) {
				vals[i] = float64(i%3) - 1 // ties and a zero where the NaNs were
			}
		}
		fraction := (float64(frac) + 1) / 256
		got, err := NewTopK(fraction).Encode(vals)
		if err != nil {
			t.Fatalf("topk rejected a vector: %v", err)
		}
		if want := refTopKEncode(fraction, vals); !bytes.Equal(got, want) {
			t.Fatalf("fraction %v, %d values: bytes differ from the sort reference\n got %x\nwant %x", fraction, len(vals), got, want)
		}
	})
}

// FuzzDecodeNeverPanics: arbitrary wire bytes are rejected cleanly by every
// decoder — an error, never a panic — and cannot size an allocation: a
// destination of the wrong length is refused untouched, and decoding into
// the right one allocates nothing but an error message. (Decode is left out
// on purpose: it trusts the header for the length, which is what fl's
// receivers never do.)
func FuzzDecodeNeverPanics(f *testing.F) {
	fuzzSeeds(f)
	good, _ := NewTopK(0.5).Encode([]float64{1, -2, 3, -4})
	f.Add(good)
	f.Add(forgedTopKHeader)
	f.Fuzz(func(t *testing.T, raw []byte) {
		// Every codec's frame opens with its value count.
		claimed := uint64(math.MaxUint64)
		if len(raw) >= 8 {
			claimed = binary.LittleEndian.Uint64(raw)
		}
		const sentinel = 42.5
		dsts := [][]float64{make([]float64, 3), make([]float64, 4), make([]float64, min(claimed, 1<<12))}
		for _, name := range []string{None, Q8, TopK} {
			c, _ := New(name)
			for _, dst := range dsts {
				for i := range dst {
					dst[i] = sentinel
				}
			}
			errs := make([]error, len(dsts))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i, dst := range dsts {
				errs[i] = c.DecodeInto(dst, raw)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<14 {
				t.Fatalf("%s: decoding %d bytes into caller vectors allocated %d bytes", name, len(raw), grew)
			}
			for i, dst := range dsts {
				fits := uint64(len(dst)) == claimed
				if errs[i] == nil && !fits {
					t.Fatalf("%s: a frame claiming %d values decoded into %d", name, claimed, len(dst))
				}
				if errs[i] != nil && !errors.Is(errs[i], ErrCorrupt) {
					t.Fatalf("%s: %v does not wrap ErrCorrupt", name, errs[i])
				}
				if fits {
					continue
				}
				for _, v := range dst {
					if v != sentinel {
						t.Fatalf("%s: wrote to a %d-value destination for a frame claiming %d", name, len(dst), claimed)
					}
				}
			}
		}
	})
}
