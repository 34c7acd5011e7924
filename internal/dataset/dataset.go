// Package dataset provides the synthetic stand-ins for the image benchmarks
// used in the paper (MNIST, FMNIST, Cifar-10, Cifar-100) together with the
// IID and non-IID client partitioners.
//
// The real datasets are not available offline, and the paper's experiments
// do not depend on natural image content — they depend on how *classes* are
// distributed across clients. Each synthetic class is a deterministic
// smooth prototype pattern; samples are prototypes plus Gaussian noise, so
// the classification task is learnable by the same CNNs, non-IID label skew
// behaves as in the paper, and every experiment is reproducible from a seed.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"strconv"

	"aergia/internal/tensor"
)

// Kind identifies a benchmark dataset.
type Kind int

// Supported synthetic dataset kinds.
const (
	MNIST Kind = iota + 1
	FMNIST
	Cifar10
	Cifar100
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case MNIST:
		return "mnist"
	case FMNIST:
		return "fmnist"
	case Cifar10:
		return "cifar10"
	case Cifar100:
		return "cifar100"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalJSON encodes the kind as its name, so experiment result records
// stay readable without the Kind numbering.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(k.String())), nil
}

// Shape returns the image shape (C,H,W) of the dataset kind.
func (k Kind) Shape() []int {
	switch k {
	case MNIST, FMNIST:
		return []int{1, 28, 28}
	default:
		return []int{3, 32, 32}
	}
}

// SmallShape returns the downscaled experiment shape of the dataset kind.
func (k Kind) SmallShape() []int {
	switch k {
	case MNIST, FMNIST:
		return []int{1, 14, 14}
	default:
		return []int{3, 16, 16}
	}
}

// Classes returns the number of classes, or 0 for an unknown kind.
func (k Kind) Classes() int {
	switch k {
	case MNIST, FMNIST, Cifar10:
		return 10
	case Cifar100:
		return 100
	default:
		return 0
	}
}

// Sample is one labelled image.
type Sample struct {
	X *tensor.Tensor
	Y int
}

// Dataset is a labelled image collection.
type Dataset struct {
	Kind    Kind
	Classes int
	Shape   []int
	Samples []Sample
}

// ErrEmpty is returned for operations on empty datasets or partitions.
var ErrEmpty = errors.New("dataset: empty")

// Config controls synthetic generation.
type Config struct {
	Kind Kind
	// N is the number of samples to generate.
	N int
	// Seed drives both prototypes and noise; the prototypes depend only on
	// (Kind, Seed) so train and test sets generated with the same seed are
	// drawn from the same class distributions.
	Seed uint64
	// NoiseStd is the per-pixel Gaussian noise; defaults to 0.35.
	NoiseStd float64
	// Variant offsets the noise stream without changing the class
	// prototypes: use Variant 0 for the training set and a different
	// value for a disjoint test set drawn from the same distributions.
	Variant uint64
	// Small generates downscaled images (1×14×14 / 3×16×16) for the
	// experiment-scale architectures; see DESIGN.md §2 (scale-down).
	Small bool
}

// Generate builds a synthetic dataset with balanced classes: one draw from
// a Source made for the occasion. Callers that draw more than once from the
// same distributions keep the Source.
func Generate(cfg Config) (*Dataset, error) {
	src, err := NewSource(cfg.Kind, cfg.Seed, cfg.Small, cfg.NoiseStd)
	if err != nil {
		return nil, err
	}
	return src.Generate(cfg.N, cfg.Variant)
}

// Source is the class distributions of one (Kind, Seed, Small, NoiseStd):
// the class prototypes, computed once, and the noise level. Every dataset
// drawn from it — train set, test set, a lazy client's shard — differs only
// in size and noise stream (Variant). A Source is read-only after NewSource
// and safe for concurrent Generate calls.
type Source struct {
	kind   Kind
	seed   uint64
	noise  float64
	shape  []int
	protos []*tensor.Tensor
}

// NewSource computes the class prototypes of the dataset kind. The arguments
// are Config's fields of the same names.
func NewSource(kind Kind, seed uint64, small bool, noiseStd float64) (*Source, error) {
	if kind.Classes() == 0 {
		return nil, fmt.Errorf("dataset: unknown kind %d", int(kind))
	}
	if noiseStd == 0 {
		noiseStd = 0.35
	}
	shape := kind.Shape()
	if small {
		shape = kind.SmallShape()
	}
	return &Source{kind: kind, seed: seed, noise: noiseStd, shape: shape,
		protos: prototypes(kind, seed, shape)}, nil
}

// Generate draws n class-balanced samples with the noise stream of variant
// (Config.Variant). Samples own their storage; none aliases a prototype.
func (s *Source) Generate(n int, variant uint64) (*Dataset, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: N = %d", n)
	}
	return s.GenerateInto(make([]*tensor.Tensor, n), variant)
}

// GenerateInto is Generate drawing into storage the caller supplies: it
// draws len(xs) samples, the i-th into xs[i], which it overwrites whole, or,
// when xs[i] is nil, into a fresh tensor it stores there. A supplied tensor
// must be a float64 one of the source's image shape. The dataset equals
// Generate's bit for bit whatever xs held, and its samples are xs's tensors.
func (s *Source) GenerateInto(xs []*tensor.Tensor, variant uint64) (*Dataset, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("dataset: N = %d", n)
	}
	classes := s.kind.Classes()
	rng := tensor.NewRNG(s.seed ^ 0xabcdef123456 ^ (variant * 0x9e3779b97f4a7c15))
	for i, x := range xs {
		proto := s.protos[i%classes]
		if x == nil {
			x = proto.Clone()
			xs[i] = x
		} else if err := x.CopyFrom(proto); err != nil {
			return nil, fmt.Errorf("dataset: sample %d: %w", i, err)
		}
		d := x.Data()
		for j := range d {
			d[j] += rng.NormFloat64() * s.noise
		}
	}
	// Shuffle so contiguous slices are class-balanced draws.
	ds := &Dataset{Kind: s.kind, Classes: classes, Shape: s.shape, Samples: make([]Sample, n)}
	for i, p := range rng.Perm(n) {
		ds.Samples[i] = Sample{X: xs[p], Y: p % classes}
	}
	return ds, nil
}

// prototypes returns one deterministic smooth pattern per class.
func prototypes(kind Kind, seed uint64, shape []int) []*tensor.Tensor {
	classes := kind.Classes()
	protos := make([]*tensor.Tensor, classes)
	for c := 0; c < classes; c++ {
		rng := tensor.NewRNG(seed*0x9e37 + uint64(c)*0x85eb + uint64(kind))
		p := tensor.MustNew(shape...)
		d := p.Data()
		ch, h, w := shape[0], shape[1], shape[2]
		// Sum of a few random low-frequency sinusoids gives each class a
		// distinctive, spatially smooth signature (legible to small convs).
		type wave struct{ fx, fy, phase, amp float64 }
		waves := make([]wave, 4)
		for i := range waves {
			waves[i] = wave{
				fx:    1 + 3*rng.Float64(),
				fy:    1 + 3*rng.Float64(),
				phase: 2 * math.Pi * rng.Float64(),
				amp:   0.5 + rng.Float64(),
			}
		}
		for cc := 0; cc < ch; cc++ {
			chanShift := float64(cc) * 0.7
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					var v float64
					for _, wv := range waves {
						v += wv.amp * math.Sin(
							wv.fx*float64(x)/float64(w)*2*math.Pi+
								wv.fy*float64(y)/float64(h)*2*math.Pi+
								wv.phase+chanShift)
					}
					d[(cc*h+y)*w+x] = v / 2
				}
			}
		}
		protos[c] = p
	}
	return protos
}

// Inputs returns the sample tensors.
func (d *Dataset) Inputs() []*tensor.Tensor {
	xs := make([]*tensor.Tensor, len(d.Samples))
	for i, s := range d.Samples {
		xs[i] = s.X
	}
	return xs
}

// Labels returns the sample labels.
func (d *Dataset) Labels() []int {
	ys := make([]int, len(d.Samples))
	for i, s := range d.Samples {
		ys[i] = s.Y
	}
	return ys
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// ClassDistribution returns the per-class sample counts of the dataset
// (the privacy-sensitive vector clients submit to the enclave).
func (d *Dataset) ClassDistribution() []int {
	counts := make([]int, d.Classes)
	for _, s := range d.Samples {
		counts[s.Y]++
	}
	return counts
}

// Subset returns a dataset view over the given sample indices.
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{Kind: d.Kind, Classes: d.Classes, Shape: d.Shape,
		Samples: make([]Sample, len(idx))}
	for i, j := range idx {
		sub.Samples[i] = d.Samples[j]
	}
	return sub
}

// Batches splits the dataset into mini-batches of the given size in order;
// the final batch may be smaller. It returns slices of inputs and labels.
func (d *Dataset) Batches(size int) (xss [][]*tensor.Tensor, yss [][]int, err error) {
	if size <= 0 {
		return nil, nil, fmt.Errorf("dataset: batch size %d", size)
	}
	if d.Len() == 0 {
		return nil, nil, ErrEmpty
	}
	xs, ys := d.Inputs(), d.Labels()
	for i := 0; i < len(xs); i += size {
		end := i + size
		if end > len(xs) {
			end = len(xs)
		}
		xss = append(xss, xs[i:end])
		yss = append(yss, ys[i:end])
	}
	return xss, yss, nil
}
