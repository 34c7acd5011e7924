package nn

import "math"

// softmaxXEntInto computes softmax cross-entropy in float64: d holds the
// logits, gd receives the gradient (softmax minus one-hot), and the loss is
// returned. It is numerically stabilized by subtracting the max logit. Both
// dtypes share this reference arithmetic: float32 logits are widened before
// the call and the gradient narrowed after, so the float64 path is
// bit-identical to the historical implementation.
func softmaxXEntInto(d []float64, label int, gd []float64) float64 {
	maxv := d[0]
	for _, v := range d {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range d {
		gd[i] = math.Exp(v - maxv)
		sum += gd[i]
	}
	for i := range gd {
		gd[i] /= sum
	}
	loss := -math.Log(gd[label] + 1e-12)
	gd[label]--
	return loss
}
