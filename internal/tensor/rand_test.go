package tensor

import "testing"

// TestRNGAtMatchesStream pins At to the sequential stream: the i-th Uint64
// for every i < 100000, and i = 2^40 against a state stepped by doubling
// (2^40 calls would not finish).
func TestRNGAtMatchesStream(t *testing.T) {
	for _, seed := range []uint64{0, 7, 7 ^ 0x5eed} {
		at, seq := NewRNG(seed), NewRNG(seed)
		for i := uint64(0); i < 100000; i++ {
			if got, want := at.At(i), seq.Uint64(); got != want {
				t.Fatalf("seed %d: At(%d) = %#x, the %d-th draw is %#x", seed, i, got, i, want)
			}
		}
		if at.state != NewRNG(seed).state {
			t.Fatalf("seed %d: At advanced the generator", seed)
		}
		if got, want := at.Float64At(99999), unit(NewRNG(seed).At(99999)); got != want {
			t.Fatalf("seed %d: Float64At(99999) = %v, want %v", seed, got, want)
		}

		const far = uint64(1) << 40
		state, step := at.state, uint64(gamma)
		for n := far; n > 0; n >>= 1 { // state + far·gamma, by doubling
			if n&1 == 1 {
				state += step
			}
			step += step
		}
		if got, want := at.At(far), (&RNG{state: state}).Uint64(); got != want {
			t.Fatalf("seed %d: At(2^40) = %#x, the stepped stream gives %#x", seed, got, want)
		}
	}
}
