package tensor

import (
	"encoding/binary"
	"math"
)

// RNG is a small deterministic pseudo-random generator (SplitMix64 core with
// a xorshift* scramble). Every stochastic component in the repository draws
// from an explicitly seeded RNG so that experiments are reproducible
// bit-for-bit; we intentionally avoid math/rand global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = gamma
	}
	return &RNG{state: seed}
}

// gamma is SplitMix64's state increment.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return splitmix(r.state)
}

// At returns the i-th value Uint64 would return from r's current state
// (i = 0 is the next one) without advancing r: SplitMix64's i-th output
// depends only on state + (i+1)·gamma, so it is O(1) in i.
func (r *RNG) At(i uint64) uint64 { return splitmix(r.state + (i+1)*gamma) }

func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// Float64At is At as Float64 would map it: the i-th value Float64 would
// return, without advancing r.
func (r *RNG) Float64At(i uint64) float64 { return unit(r.At(i)) }

func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// Read fills p with pseudo-random bytes and never fails, making *RNG an
// io.Reader. The simulation uses this to derive signing keys, enclave keys,
// and nonces deterministically from the experiment seed; these protect
// nothing outside the simulation, where crypto/rand would break
// reproducibility.
func (r *RNG) Read(p []byte) (int, error) {
	var buf [8]byte
	for i := 0; i < len(p); i += 8 {
		binary.LittleEndian.PutUint64(buf[:], r.Uint64())
		copy(p[i:], buf[:])
	}
	return len(p), nil
}

// Perm returns a pseudo-random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent generator; useful to give each simulated
// client its own stream from one experiment seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// FillNormal fills t with N(0, std²) variates. Variates are always drawn in
// float64 and narrowed into float32 storage, so a float32 tensor is filled
// with exactly the rounded float64 initialization (same RNG stream, same
// values modulo one rounding) — float32 training starts from the narrowed
// float64 reference init.
func (t *Tensor) FillNormal(r *RNG, std float64) {
	if t.dt == F32 {
		for i := range t.f32 {
			t.f32[i] = float32(r.NormFloat64() * std)
		}
		return
	}
	for i := range t.data {
		t.data[i] = r.NormFloat64() * std
	}
}

// FillUniform fills t with U[lo,hi) variates (drawn in float64; see
// FillNormal for the float32 narrowing contract).
func (t *Tensor) FillUniform(r *RNG, lo, hi float64) {
	if t.dt == F32 {
		for i := range t.f32 {
			t.f32[i] = float32(lo + r.Float64()*(hi-lo))
		}
		return
	}
	for i := range t.data {
		t.data[i] = lo + r.Float64()*(hi-lo)
	}
}
