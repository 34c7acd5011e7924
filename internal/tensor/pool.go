package tensor

import "sync"

// arena is a stock of scratch buffers of one element type, backed by
// sync.Pool, for what a kernel needs only until it returns. The fused
// convolution backward stages its masked gradient and padded planes here, one
// buffer a call, so that no layer holds them between steps. A caller that
// takes one buffer at a time keeps the stock at its largest request: steady
// state allocates nothing. The zero value is ready to use.
type arena[T Elem] struct{ free sync.Pool }

// get returns a buffer with length n (contents unspecified).
func (a *arena[T]) get(n int) *[]T {
	bp, ok := a.free.Get().(*[]T)
	if !ok || cap(*bp) < n {
		b := make([]T, n)
		return &b
	}
	*bp = (*bp)[:n]
	return bp
}

// put returns a buffer to the arena.
func (a *arena[T]) put(bp *[]T) { a.free.Put(bp) }
