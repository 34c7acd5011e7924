package fl

import (
	"fmt"

	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// Where a run's real computation executes. Client training — the bulk of
// it — runs on compute lanes (lane.go, DESIGN.md §14): up to GOMAXPROCS
// clients at once, process-wide. Evaluation stays on the goroutine that
// drives the federator, because the round waits for it anyway.

// newEvaluator builds the global-model accuracy function over a fixed test
// set: one network on the run's backend, reloaded with the weights under
// evaluation.
func newEvaluator(arch nn.Arch, be tensor.Backend, xs []*tensor.Tensor, ys []int) (func(nn.Weights) (float64, error), error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("fl: evaluator set of %d inputs, %d labels", len(xs), len(ys))
	}
	net, err := nn.Replica(arch, be)
	if err != nil {
		return nil, err
	}
	return func(w nn.Weights) (float64, error) {
		if err := net.LoadWeights(w); err != nil {
			return 0, err
		}
		return net.Evaluate(xs, ys)
	}, nil
}
