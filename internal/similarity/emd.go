// Package similarity computes Earth Mover's Distance (EMD) between client
// class distributions and the pairwise similarity matrix the Aergia
// scheduler uses to match weak clients with data-compatible strong clients
// (paper §4.4). Distributions are histograms over class labels; following
// Rubner et al. for one-dimensional histograms with unit ground distance,
// the EMD equals the L1 distance between cumulative distributions.
package similarity

import (
	"errors"
	"fmt"
	"math"
)

// ErrMismatch is returned when distributions have different lengths.
var ErrMismatch = errors.New("similarity: distribution length mismatch")

// Normalize converts per-class counts into a probability distribution.
// A zero histogram normalizes to the uniform distribution.
func Normalize(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(counts))
		}
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// EMD returns the Earth Mover's Distance between two normalized
// distributions over the same ordered class set. The result lies in
// [0, len-1]; 0 means identical distributions.
func EMD(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrMismatch, len(p), len(q))
	}
	var cum, total float64
	for i := range p {
		cum += p[i] - q[i]
		total += math.Abs(cum)
	}
	return total, nil
}

// Matrix is a symmetric pairwise dissimilarity matrix: Matrix[i][j] is the
// EMD between the class distributions of clients i and j. Lower values mean
// more similar datasets.
type Matrix [][]float64

// NewMatrix computes the pairwise EMD matrix of the given count histograms.
func NewMatrix(dists [][]int) (Matrix, error) {
	m := make(Matrix, len(dists))
	norm := make([][]float64, len(dists))
	for i, d := range dists {
		norm[i] = Normalize(d)
	}
	for i := range dists {
		m[i] = make([]float64, len(dists))
	}
	for i := 0; i < len(dists); i++ {
		for j := i + 1; j < len(dists); j++ {
			d, err := EMD(norm[i], norm[j])
			if err != nil {
				return nil, fmt.Errorf("clients %d/%d: %w", i, j, err)
			}
			m[i][j] = d
			m[j][i] = d
		}
	}
	return m, nil
}

// At returns the dissimilarity between clients i and j; At(i,i) is 0.
func (m Matrix) At(i, j int) float64 { return m[i][j] }

// Size returns the number of clients covered by the matrix.
func (m Matrix) Size() int { return len(m) }
