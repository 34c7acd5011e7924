package experiments

import "io"

// AddBatchExperiment registers a test-only experiment whose collector runs
// the given functions as one batch, as every FL experiment does, and
// returns the function that removes it again.
func AddBatchExperiment(name string, runs ...func(Options) error) (remove func()) {
	Index[name] = entry(
		func(opt Options) (int, error) { return len(runs), runAll(opt, runs...) },
		func(int, io.Writer) error { return nil })
	return func() { delete(Index, name) }
}
