package fl

import (
	"fmt"
	"sync"

	"aergia/internal/nn"
	"aergia/internal/tensor"
)

// Where a run's real computation executes. Client training — the bulk of
// it — runs on compute lanes (lane.go, DESIGN.md §14): up to GOMAXPROCS
// clients at once, process-wide. Evaluation stays on the goroutine that
// drives the federator, because the round waits for it anyway; it is
// sharded only when the backend brings a pool of its own.

// forRunner is the optional backend capability the evaluator shards on; the
// parallel backends implement it with the tensor worker pool. That pool's
// bound is separate from the lanes' — an evaluation can overlap the last
// steps of clients the round cut — and it goes when the kernel-level pool
// does (ROADMAP item 6).
type forRunner interface {
	ParallelFor(n int, fn func(lo, hi int))
}

// newEvaluator builds the global-model accuracy function over a fixed test
// set. With a parallel backend the test set is sharded across one model
// replica per worker on the backend's own pool; each shard's correct-
// prediction count is an integer, and integer addition is order-independent,
// so the parallel evaluation is bit-identical to the serial one (predictions
// themselves are backend-independent by the tensor.Backend contract).
// Replicas are built lazily on the first evaluation, so runs that never
// evaluate (EvalEvery larger than Rounds) pay nothing.
func newEvaluator(arch nn.Arch, be tensor.Backend, xs []*tensor.Tensor, ys []int) (func(nn.Weights) (float64, error), error) {
	if len(xs) == 0 || len(xs) != len(ys) {
		return nil, fmt.Errorf("fl: evaluator set of %d inputs, %d labels", len(xs), len(ys))
	}
	runner, _ := be.(forRunner)
	workers := 1
	if runner != nil {
		workers = be.Workers()
	}
	if workers > len(xs) {
		workers = len(xs)
	}
	if workers <= 1 {
		net, err := nn.BuildWith(arch, 1, be)
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
	// Replicas keep a serial backend of the same element type (see
	// tensor.ReferenceBackend): parallelism comes from sharding the samples,
	// and nesting op-level parallelism under the shards would only add
	// contention for the same worker pool. The dtype must match so float32
	// runs evaluate with float32 replicas — predictions stay bit-identical
	// to the unsharded path. The first replica is built eagerly so
	// configuration errors surface at setup; the rest are built on the
	// first evaluation, so runs that never evaluate pay for one.
	ref := tensor.ReferenceBackend(be)
	nets := make([]*nn.Network, workers)
	first, err := nn.BuildWith(arch, 1, ref)
	if err != nil {
		return nil, err
	}
	nets[0] = first
	var once sync.Once
	var buildErr error
	chunk := (len(xs) + workers - 1) / workers
	return func(w nn.Weights) (float64, error) {
		once.Do(func() {
			for i := 1; i < len(nets); i++ {
				net, err := nn.BuildWith(arch, 1, ref)
				if err != nil {
					buildErr = err
					return
				}
				nets[i] = net
			}
		})
		if buildErr != nil {
			return 0, buildErr
		}
		errs := make([]error, workers)
		counts := make([]int, workers)
		runner.ParallelFor(workers, func(wlo, whi int) {
			for i := wlo; i < whi; i++ {
				lo := i * chunk
				hi := lo + chunk
				if hi > len(xs) {
					hi = len(xs)
				}
				if lo >= hi {
					continue
				}
				net := nets[i]
				if err := net.LoadWeights(w); err != nil {
					errs[i] = err
					continue
				}
				correct := 0
				for s := lo; s < hi; s++ {
					p, err := net.Predict(xs[s])
					if err != nil {
						errs[i] = err
						break
					}
					if p == ys[s] {
						correct++
					}
				}
				counts[i] = correct
			}
		})
		total := 0
		for i := range errs {
			if errs[i] != nil {
				return 0, errs[i]
			}
			total += counts[i]
		}
		return float64(total) / float64(len(xs)), nil
	}, nil
}
