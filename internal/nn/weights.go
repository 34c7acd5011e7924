package nn

import (
	"errors"
	"fmt"

	"aergia/internal/tensor"
)

// Weights is a flat snapshot of a network's parameters, split by section so
// that the federator can recombine offloaded models: feature weights from
// the strong client, classifier weights from the weak client.
type Weights struct {
	Feature    []float64 `json:"feature"`
	Classifier []float64 `json:"classifier"`
}

// ErrWeightSize is returned when a snapshot does not fit the network.
var ErrWeightSize = errors.New("nn: weight snapshot size mismatch")

// SnapshotWeights captures the current parameters.
func (n *Network) SnapshotWeights() Weights { return n.SnapshotInto(Weights{}) }

// SnapshotInto captures the current parameters into dst's vectors, each
// resliced to its section's length when its capacity allows and replaced by
// a fresh one when not, and returns the snapshot. The values are
// SnapshotWeights' bit for bit; only where they are stored differs.
func (n *Network) SnapshotInto(dst Weights) Weights {
	return Weights{
		Feature:    flattenInto(dst.Feature, n.featureParams()),
		Classifier: flattenInto(dst.Classifier, n.classifierParams()),
	}
}

// LoadWeights restores parameters from a snapshot.
func (n *Network) LoadWeights(w Weights) error {
	if err := unflatten(n.featureParams(), w.Feature); err != nil {
		return fmt.Errorf("feature section: %w", err)
	}
	if err := unflatten(n.classifierParams(), w.Classifier); err != nil {
		return fmt.Errorf("classifier section: %w", err)
	}
	return nil
}

// flattenInto widens parameters of either element type into the float64
// wire format, in buf when it has the capacity: snapshots, aggregation, and
// codecs all stay float64 regardless of the training dtype.
func flattenInto(buf []float64, ps []*tensor.Tensor) []float64 {
	total := 0
	for _, p := range ps {
		total += p.Size()
	}
	if cap(buf) < total {
		buf = make([]float64, total)
	}
	out := buf[:total]
	off := 0
	for _, p := range ps {
		p.CopyToF64(out[off : off+p.Size()])
		off += p.Size()
	}
	return out
}

// unflatten narrows float64 wire values into parameters of either element
// type.
func unflatten(ps []*tensor.Tensor, vals []float64) error {
	total := 0
	for _, p := range ps {
		total += p.Size()
	}
	if total != len(vals) {
		return fmt.Errorf("%w: have %d values, need %d", ErrWeightSize, len(vals), total)
	}
	off := 0
	for _, p := range ps {
		p.CopyFromF64(vals[off : off+p.Size()])
		off += p.Size()
	}
	return nil
}

// Clone deep-copies a snapshot.
func (w Weights) Clone() Weights {
	return Weights{
		Feature:    append([]float64(nil), w.Feature...),
		Classifier: append([]float64(nil), w.Classifier...),
	}
}

// Len returns the total number of parameters in the snapshot.
func (w Weights) Len() int { return len(w.Feature) + len(w.Classifier) }

// ByteSize returns the serialized size in bytes.
func (w Weights) ByteSize() int { return 8 * w.Len() }

// Scale multiplies every weight by a in place.
func (w Weights) Scale(a float64) {
	for i := range w.Feature {
		w.Feature[i] *= a
	}
	for i := range w.Classifier {
		w.Classifier[i] *= a
	}
}

// Axpy adds a*o into w in place; the snapshots must be congruent.
func (w Weights) Axpy(a float64, o Weights) error {
	if len(w.Feature) != len(o.Feature) || len(w.Classifier) != len(o.Classifier) {
		return ErrWeightSize
	}
	for i, v := range o.Feature {
		w.Feature[i] += a * v
	}
	for i, v := range o.Classifier {
		w.Classifier[i] += a * v
	}
	return nil
}

// ZeroLike returns a zero snapshot congruent with w.
func (w Weights) ZeroLike() Weights {
	return Weights{
		Feature:    make([]float64, len(w.Feature)),
		Classifier: make([]float64, len(w.Classifier)),
	}
}
