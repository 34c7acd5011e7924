package fl

import (
	"fmt"
	"sync/atomic"
	"time"

	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// Where a run's real computation executes. Client training — the bulk of
// it — runs on compute lanes (lane.go, DESIGN.md §14): up to GOMAXPROCS
// clients at once, process-wide. Evaluation is a lane step the next round's
// close joins, so the clock's goroutine drives that round meanwhile.

// newEvaluator builds the global-model accuracy function over a fixed test
// set: one network on the run's backend, reloaded with the weights under
// evaluation, so calls must not overlap.
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

// evaluation is an accuracy computing on a lane step; settle (a no-op on
// nil) joins it and hands done the outcome.
type evaluation struct {
	step *step
	acc  float64
	done func(acc float64, err error)
}

// launchEvaluation hands a fresh lane of g the accuracy of the snapshot w,
// due at the virtual time of the close that took it.
func launchEvaluation(g *laneGroup, due time.Duration, evaluate func(nn.Weights) (float64, error), w nn.Weights, done func(float64, error)) *evaluation {
	e := &evaluation{done: done}
	e.step = (&lane{group: g}).launch(due, func(*atomic.Bool) (_ nn.Weights, err error) {
		e.acc, err = evaluate(w)
		return
	})
	return e
}

func (e *evaluation) settle() {
	if e != nil {
		_, err := e.step.join()
		e.done(e.acc, err)
	}
}
