package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"aergia/internal/race"
	"aergia/internal/tensor"
)

func randVec(rng *tensor.RNG, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 4 * (rng.Float64() - 0.5)
	}
	return out
}

func TestCanonical(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", None}, {"none", None}, {"q8", Q8}, {"topk", TopK},
	} {
		got, err := Canonical(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("Canonical(%q) = %q, %v", tc.in, got, err)
		}
	}
	if _, err := Canonical("gzip"); err == nil || !strings.Contains(err.Error(), "allowed values") {
		t.Fatalf("unknown codec accepted: %v", err)
	}
	if _, err := New("gzip"); err == nil {
		t.Fatal("New accepted an unknown name")
	}
	for _, name := range []string{"", None, Q8, TopK} {
		c, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		canon, _ := Canonical(name)
		if c.Name() != canon {
			t.Fatalf("New(%q).Name() = %q, want %q", name, c.Name(), canon)
		}
	}
}

// TestNoneExactRoundTrip pins the reference codec: bit-exact round-trips,
// including negative zero and extreme magnitudes.
func TestNoneExactRoundTrip(t *testing.T) {
	c, _ := New(None)
	vals := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e300, -1e-300, math.MaxFloat64}
	data, err := c.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8+8*len(vals) {
		t.Fatalf("none encoded %d values to %d bytes", len(vals), len(data))
	}
	got, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("index %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
}

// TestQ8ErrorBound pins the quantization contract: deterministic bytes and
// max absolute error <= (max-min)/255.
func TestQ8ErrorBound(t *testing.T) {
	c, _ := New(Q8)
	rng := tensor.NewRNG(3)
	for trial := 0; trial < 20; trial++ {
		vals := randVec(rng, 1+trial*13)
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		data, err := c.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 24+len(vals) {
			t.Fatalf("q8 encoded %d values to %d bytes", len(vals), len(data))
		}
		again, err := c.Encode(vals)
		if err != nil || !bytes.Equal(data, again) {
			t.Fatalf("q8 encoding is not deterministic: %v", err)
		}
		dec, err := c.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		bound := (hi - lo) / 255
		for i := range vals {
			if err := math.Abs(dec[i] - vals[i]); err > bound+1e-12 {
				t.Fatalf("index %d: error %v exceeds bound %v", i, err, bound)
			}
		}
	}
	if _, err := c.Encode([]float64{1, math.NaN()}); err == nil {
		t.Fatal("q8 accepted a NaN")
	}
	if _, err := c.Encode([]float64{math.Inf(1)}); err == nil {
		t.Fatal("q8 accepted an Inf")
	}
	// Constant vectors have zero range and decode exactly.
	data, err := c.Encode([]float64{2.5, 2.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dec {
		if v != 2.5 {
			t.Fatalf("constant vector decoded to %v", dec)
		}
	}
}

// TestTopKKeepsLargest pins the sparsification contract: the k largest
// magnitudes survive exactly, everything else decodes to zero, and the
// decoded length matches the header.
func TestTopKKeepsLargest(t *testing.T) {
	c := NewTopK(0.25)
	vals := []float64{0.1, -5, 0.01, 3, -0.2, 0.3, 4, -0.05}
	data, err := c.Encode(vals)
	if err != nil {
		t.Fatal(err)
	}
	k := 2 // ceil(0.25*8)
	if len(data) != 16+12*k {
		t.Fatalf("topk encoded to %d bytes, want %d", len(data), 16+12*k)
	}
	dec, err := c.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(vals) {
		t.Fatalf("decoded %d values, want %d", len(dec), len(vals))
	}
	want := []float64{0, -5, 0, 0, 0, 0, 4, 0}
	for i := range want {
		if dec[i] != want[i] {
			t.Fatalf("decoded %v, want %v", dec, want)
		}
	}
	// Ties break toward the lower index.
	tied, err := NewTopK(0.5).Encode([]float64{1, -1, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	decTied, err := NewTopK(0.5).Decode(tied)
	if err != nil {
		t.Fatal(err)
	}
	if decTied[0] != 1 || decTied[1] != -1 || decTied[2] != 0 || decTied[3] != 0 {
		t.Fatalf("tie-break decoded %v", decTied)
	}
}

// TestTopKDefaultFraction pins New(TopK)'s default and the out-of-range
// fraction fallback.
func TestTopKDefaultFraction(t *testing.T) {
	c, _ := New(TopK)
	data, err := c.Encode(make([]float64, 100))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 16+12*10 {
		t.Fatalf("default topk on 100 values encoded %d bytes, want k=10", len(data))
	}
	bad := NewTopK(7)
	data, err = bad.Encode(make([]float64, 100))
	if err != nil || len(data) != 16+12*10 {
		t.Fatalf("out-of-range fraction did not fall back to the default: %d bytes, %v", len(data), err)
	}
}

// TestResidualErrorFeedback pins the accumulation semantics: what one
// round fails to transmit is carried into the next, so the running decoded
// sum tracks the running input sum.
func TestResidualErrorFeedback(t *testing.T) {
	r := NewResidual(NewTopK(0.34)) // keeps 1 of 3
	inputs := [][]float64{
		{1, 0.5, 0.25},
		{1, 0.5, 0.25},
		{1, 0.5, 0.25},
	}
	sentSum := make([]float64, 3)
	for round, in := range inputs {
		data, err := r.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := r.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range dec {
			sentSum[i] += v
		}
		_ = round
	}
	// Round 1 sends index 0 (1.0); round 2 the accumulated index 1
	// (0.5+0.5=1.0); round 3 index 0 again (1+1 vs 0.75) — every
	// coordinate eventually gets through instead of starving.
	if sentSum[0] == 0 || sentSum[1] == 0 {
		t.Fatalf("residual feedback starved a coordinate: %v", sentSum)
	}
	total := sentSum[0] + sentSum[1] + sentSum[2]
	if total < 2.9 || total > 5.3 {
		t.Fatalf("transmitted mass %v diverged from the input mass", total)
	}
	// Exact codecs keep a zero residual: wrapped none is still exact.
	exact := NewResidual(none{})
	vals := []float64{1.25, -2.5}
	for i := 0; i < 3; i++ {
		data, err := exact.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		dec, _ := exact.Decode(data)
		for j := range vals {
			if dec[j] != vals[j] {
				t.Fatalf("residual-wrapped none drifted: %v", dec)
			}
		}
	}
}

// TestDecodeRejectsCorruptBytes pins the error (not panic) contract for
// malformed buffers across all codecs.
func TestDecodeRejectsCorruptBytes(t *testing.T) {
	for _, name := range []string{None, Q8, TopK} {
		c, _ := New(name)
		for _, data := range [][]byte{
			nil,
			{1, 2, 3},
			append(make([]byte, 16), 0xff), // plausible header, bad body
			bytes.Repeat([]byte{0xff}, 40), // absurd counts
		} {
			if _, err := c.Decode(data); err == nil {
				t.Fatalf("%s decoded corrupt %d-byte buffer", name, len(data))
			}
		}
	}
}

// refTopKEncode is the encoder topk shipped with before the radix select: a
// stable sort of every index by descending magnitude, the first k kept,
// re-sorted by index. It is the byte-for-byte reference on NaN-free input
// (its comparator is not a strict weak order once a NaN is present, so
// which entries it keeps then depends on sort's algorithm).
func refTopKEncode(frac float64, vals []float64) []byte {
	k := NewTopK(frac).(topk).k(len(vals))
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return math.Abs(vals[idx[a]]) > math.Abs(vals[idx[b]])
	})
	kept := idx[:k]
	sort.Ints(kept)
	buf := make([]byte, 16+12*k)
	binary.LittleEndian.PutUint64(buf, uint64(len(vals)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(k))
	off := 16
	for _, i := range kept {
		binary.LittleEndian.PutUint32(buf[off:], uint32(i))
		binary.LittleEndian.PutUint64(buf[off+4:], math.Float64bits(vals[i]))
		off += 12
	}
	return buf
}

// TestTopKMatchesSortReference: the select emits the sort's bytes on every
// NaN-free input shape — random, heavily tied, signed zeros, infinities,
// denormals — at k = 1, k = n and fractions in between.
func TestTopKMatchesSortReference(t *testing.T) {
	rng := tensor.NewRNG(21)
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	inputs := map[string][]float64{
		"empty":     {},
		"one":       {-3},
		"random":    randVec(rng, 1000),
		"gradient":  make([]float64, 5000),
		"tied":      make([]float64, 999),
		"all-equal": make([]float64, 300),
		"zeros":     {0, negZero, 0, negZero, negZero, 0, 0},
		"inf":       {1, math.Inf(-1), -2, math.Inf(1), math.MaxFloat64, math.Inf(1), 0, -math.MaxFloat64},
		"denormal":  {denorm, -2 * denorm, 0, 3 * denorm, negZero, -denorm, denorm, 2.2250738585072014e-308},
	}
	for i := range inputs["gradient"] {
		inputs["gradient"][i] = 0.01 * rng.NormFloat64()
	}
	for i := range inputs["tied"] {
		inputs["tied"][i] = float64(rng.Intn(7)-3) / 2 // seven values, both signs, ±0 among them
	}
	for i := range inputs["all-equal"] {
		inputs["all-equal"][i] = -1.5
	}
	for name, vals := range inputs {
		for _, frac := range []float64{1e-9, 0.01, DefaultTopKFraction, 1.0 / 3, 0.5, 0.999, 1} {
			got, err := NewTopK(frac).Encode(vals)
			if err != nil {
				t.Fatal(err)
			}
			if want := refTopKEncode(frac, vals); !bytes.Equal(got, want) {
				t.Fatalf("%s at fraction %v: %d bytes differ from the sort reference's %d", name, frac, len(got), len(want))
			}
		}
	}
}

// TestTopKNaNOrder pins the part of the order the sort never defined: a NaN
// outranks +Inf, NaNs tie-break like everything else (payload bits, then
// the lower index), and the sign of a NaN is ignored.
func TestTopKNaNOrder(t *testing.T) {
	nan := math.Float64frombits(0x7ff8 << 48)
	loud := math.Float64frombits(0x7ff8<<48 | 1) // larger payload
	vals := []float64{math.Inf(1), nan, 1, math.Copysign(nan, -1), loud, math.Inf(-1)}
	for k, want := range [][]int{1: {4}, 2: {1, 4}, 3: {1, 3, 4}, 4: {0, 1, 3, 4}, 5: {0, 1, 3, 4, 5}} {
		if k == 0 {
			continue
		}
		data, err := NewTopK(float64(k) / float64(len(vals))).Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		var got []int
		for off := 16; off < len(data); off += 12 {
			i := int(binary.LittleEndian.Uint32(data[off:]))
			if math.Float64bits(vals[i]) != binary.LittleEndian.Uint64(data[off+4:]) {
				t.Fatalf("k=%d: entry %d does not carry its value's bits", k, i)
			}
			got = append(got, i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k=%d kept indices %v, want %v", k, got, want)
		}
	}
}

// TestTopKSelectIsLinear counts key visits on the shapes that break a
// quickselect's pivoting: every one stays under the radix select's 8·n,
// well inside any c·n·log n.
func TestTopKSelectIsLinear(t *testing.T) {
	const n = 100_000
	shapes := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reverse":    func(i int) float64 { return float64(n - i) },
		"all-equal":  func(int) float64 { return 0.25 },
		"two-valued": func(i int) float64 { return float64(i % 2) },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-i)) },
		"near-equal": func(i int) float64 { return math.Float64frombits(math.Float64bits(1) + uint64(i%3)) },
	}
	vals := make([]float64, n)
	for name, at := range shapes {
		for i := range vals {
			vals[i] = at(i)
		}
		for _, k := range []int{1, n / 10, n / 2, n} {
			thr, greater, visits := kthLargestKey(vals, k)
			if visits > 8*n {
				t.Errorf("%s k=%d: %d key visits for %d keys, bound is %d", name, k, visits, n, 8*n)
			}
			above, ties := 0, 0
			for _, v := range vals {
				switch key := magKey(v); {
				case key > thr:
					above++
				case key == thr:
					ties++
				}
			}
			if above != greater || above >= k || above+ties < k {
				t.Errorf("%s k=%d: threshold %#x has %d keys above (reported %d) and %d ties", name, k, thr, above, greater, ties)
			}
		}
	}
}

// TestDecodeIntoLengthFirst: the header is compared with what the receiver
// expects before anything is written, for every codec; and the frame that
// motivated the rule — 16 bytes claiming 2²⁷ values — is refused by Decode
// too instead of costing a gibibyte.
func TestDecodeIntoLengthFirst(t *testing.T) {
	vals := []float64{1, -2, 3, -4, 5}
	for _, name := range []string{None, Q8, TopK} {
		c, _ := New(name)
		data, err := c.Encode(vals)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, len(vals) - 1, len(vals) + 1} {
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = 7
			}
			if err := c.DecodeInto(dst, data); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s decoded %d values into %d: %v", name, len(vals), n, err)
			}
			for _, v := range dst {
				if v != 7 {
					t.Fatalf("%s wrote to a wrong-length destination: %v", name, dst)
				}
			}
		}
		dst := make([]float64, len(vals))
		if err := c.DecodeInto(dst, data); err != nil {
			t.Fatal(err)
		}
		if again, _ := c.Decode(data); !slices.Equal(dst, again) {
			t.Fatalf("%s: DecodeInto %v, Decode %v", name, dst, again)
		}
	}
	c, _ := New(TopK)
	if _, err := c.Decode(forgedTopKHeader); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("topk decoded a bare header claiming 1<<27 values: %v", err)
	}
	if err := c.DecodeInto(make([]float64, 1<<10), forgedTopKHeader); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("topk DecodeInto accepted the forged header: %v", err)
	}
}

// forgedTopKHeader is a complete topk frame by the old rules: n = 1<<27
// values, k = 0 entries, 16 bytes.
var forgedTopKHeader = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<27), 0)

// TestCodecAllocations pins where the codec path allocates: an encode makes
// its wire bytes and nothing else once the stock is warm, a decode into a
// caller's vector makes nothing, and the stock's vectors are never read
// before they are written (they come back poisoned here).
func TestCodecAllocations(t *testing.T) {
	rng := tensor.NewRNG(5)
	vals := randVec(rng, 4096)
	poison := func() {
		bufs := []*[]float64{GetScratch(len(vals)), GetScratch(len(vals))}
		for _, bp := range bufs {
			for i := range *bp {
				(*bp)[i] = math.NaN()
			}
			PutScratch(bp)
		}
	}
	for _, name := range []string{None, Q8, TopK} {
		c, _ := New(name)
		if n := testing.AllocsPerRun(20, func() { c.Encode(vals) }); n > 2 {
			t.Errorf("%s Encode: %v allocations, want the wire bytes (at most 2)", name, n)
		}
		data, _ := c.Encode(vals)
		dst := make([]float64, len(vals))
		if n := testing.AllocsPerRun(20, func() { c.DecodeInto(dst, data) }); n != 0 {
			t.Errorf("%s DecodeInto: %v allocations, want 0", name, n)
		}

		// sync.Pool gives no guarantee across a collection, so the steady
		// state is measured between collections: AllocsPerRun's own warm-up
		// call refills the stock.
		r := NewResidual(c)
		r.Encode(vals)
		if n := testing.AllocsPerRun(20, func() { r.Encode(vals) }); n != 1 && !race.Enabled {
			t.Errorf("residual %s Encode: %v allocations a call, want 1 (the wire bytes)", name, n)
		}

		clean, dirty := NewResidual(c), NewResidual(c)
		for round := 0; round < 3; round++ {
			want, _ := clean.Encode(vals)
			poison()
			got, _ := dirty.Encode(vals)
			if !bytes.Equal(got, want) {
				t.Fatalf("residual %s round %d: a poisoned work vector changed the wire bytes", name, round)
			}
		}
	}
}

// TestCodecValueSharedAcrossGoroutines: one codec value encodes and decodes
// on many goroutines at once, as fl's lane workers and rpc's deliveries
// make it (the values hold no scratch; run under -race), each with its own
// Residual over the one shared stock of work vectors.
func TestCodecValueSharedAcrossGoroutines(t *testing.T) {
	for _, name := range []string{None, Q8, TopK} {
		c, _ := New(name)
		rng := tensor.NewRNG(9)
		inputs := make([][]float64, 8)
		want := make([][]byte, len(inputs))
		for g := range inputs {
			inputs[g] = randVec(rng, 500+100*g)
			r := NewResidual(c)
			for round := 0; round < 5; round++ {
				want[g], _ = r.Encode(inputs[g])
			}
		}
		var wg sync.WaitGroup
		for g := range inputs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := NewResidual(c)
				var got []byte
				for round := 0; round < 5; round++ {
					got, _ = r.Encode(inputs[g])
					plain, _ := c.Encode(inputs[g])
					if err := c.DecodeInto(make([]float64, len(inputs[g])), plain); err != nil {
						t.Errorf("%s goroutine %d: %v", name, g, err)
					}
				}
				if !bytes.Equal(got, want[g]) {
					t.Errorf("%s goroutine %d: residual stream differs from the serial one", name, g)
				}
			}()
		}
		wg.Wait()
	}
}
