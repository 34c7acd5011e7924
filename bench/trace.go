package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"aergia/internal/chaos"
	"aergia/internal/comm"
	"aergia/internal/hier"
	"aergia/internal/tensor"
)

// span is one timed interval the harness recorded around a call into a
// layer. Spans stay in memory until the run ends; SelfNS is filled in when
// the log is written: the span's duration minus what its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spanLog collects spans. A nil log records nothing, so untraced code paths
// call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// parent is the span new spans hang under; the harness moves it as it
	// enters and leaves ops and phases (one goroutine at a time).
	parent int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// openSpan is a span that has started; end closes it.
type openSpan struct {
	log *spanLog
	idx int
}

func (l *spanLog) start(layer, name string) *openSpan {
	if l == nil {
		return nil
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: l.parent, Layer: layer, Name: name, StartNS: now})
	return &openSpan{log: l, idx: len(l.spans) - 1}
}

// enter starts a span and makes it the parent of the spans that follow;
// the returned function ends it and restores the previous parent.
func (l *spanLog) enter(layer, name string) (leave func() time.Duration) {
	if l == nil {
		return func() time.Duration { return 0 }
	}
	s := l.start(layer, name)
	l.mu.Lock()
	prev := l.parent
	l.parent = s.idx + 1
	l.mu.Unlock()
	return func() time.Duration {
		d := s.end()
		l.mu.Lock()
		l.parent = prev
		l.mu.Unlock()
		return d
	}
}

func (s *openSpan) end() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Since(s.log.epoch).Nanoseconds()
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	sp := &s.log.spans[s.idx]
	sp.EndNS = now
	return time.Duration(sp.EndNS - sp.StartNS)
}

// finish computes self times and returns the spans.
func (l *spanLog) finish() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		l.spans[i].SelfNS = l.spans[i].EndNS - l.spans[i].StartNS
	}
	for _, s := range l.spans {
		if s.Parent > 0 {
			l.spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
	return l.spans
}

// coverage is the smallest share of an op span that its children cover.
func coverage(spans []span) float64 {
	worst := 1.0
	for _, s := range spans {
		if s.Layer != "op" {
			continue
		}
		if d := s.EndNS - s.StartNS; d > 0 {
			worst = min(worst, 1-float64(s.SelfNS)/float64(d))
		}
	}
	return worst
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Spans    []span        `json:"spans"`
	Kernels  []kernelStats `json:"kernels,omitempty"`
	Messages int64         `json:"messages,omitempty"`
	Bytes    int64         `json:"message_bytes,omitempty"`
}

func writeTrace(benchDir string, tf traceFile) (string, error) {
	dir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	buf, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}

// timedTransport is the comm.Transport decorator of a traced run, placed
// above the stack fl.Run composes. It records one span per handler, timer
// and Invoke callback under the node's role, and counts what actors send.
// Like every wrapper in that stack it must forward the optional interfaces
// (RegisterPayload, OnRejoin), or the run under it silently changes.
type timedTransport struct {
	inner comm.Transport
	log   *spanLog
	msgs  int64
	bytes int64
}

var (
	_ comm.Transport       = (*timedTransport)(nil)
	_ comm.PayloadRegistry = (*timedTransport)(nil)
	_ chaos.Rejoiner       = (*timedHandler)(nil)
)

func (t *timedTransport) RegisterPayload(v any) {
	if reg, ok := t.inner.(comm.PayloadRegistry); ok {
		reg.RegisterPayload(v)
	}
}

func (t *timedTransport) Register(id comm.NodeID, h comm.Handler) {
	t.inner.Register(id, &timedHandler{t: t, id: id, inner: h})
}

func (t *timedTransport) Seal() error { return t.inner.Seal() }

func (t *timedTransport) Env(id comm.NodeID) comm.Env {
	return &timedEnv{t: t, id: id, inner: t.inner.Env(id)}
}

func (t *timedTransport) Invoke(id comm.NodeID, fn func(comm.Env)) {
	t.inner.Invoke(id, func(env comm.Env) {
		defer t.log.start(role(id), "invoke").end()
		fn(&timedEnv{t: t, id: id, inner: env})
	})
}

func (t *timedTransport) Drive(done <-chan struct{}) error { return t.inner.Drive(done) }

func (t *timedTransport) Close() error { return t.inner.Close() }

// role names the layer a node's spans are filed under.
func role(id comm.NodeID) string {
	switch {
	case id == comm.FederatorID:
		return "federator"
	case hier.IsEdge(id):
		return "edge"
	}
	return "client"
}

type timedHandler struct {
	t     *timedTransport
	id    comm.NodeID
	inner comm.Handler
}

func (h *timedHandler) OnMessage(env comm.Env, msg comm.Message) {
	defer h.t.log.start(role(h.id), msg.Kind.String()).end()
	h.inner.OnMessage(&timedEnv{t: h.t, id: h.id, inner: env}, msg)
}

func (h *timedHandler) OnRejoin(env comm.Env) {
	if rj, ok := h.inner.(chaos.Rejoiner); ok {
		defer h.t.log.start(role(h.id), "rejoin").end()
		rj.OnRejoin(&timedEnv{t: h.t, id: h.id, inner: env})
	}
}

type timedEnv struct {
	t     *timedTransport
	id    comm.NodeID
	inner comm.Env
}

func (e *timedEnv) Now() time.Duration { return e.inner.Now() }

func (e *timedEnv) Send(msg comm.Message) {
	e.t.msgs++
	e.t.bytes += int64(msg.Size)
	e.inner.Send(msg)
}

func (e *timedEnv) After(d time.Duration, fn func()) comm.Timer {
	return e.inner.After(d, func() {
		defer e.t.log.start(role(e.id), "timer").end()
		fn()
	})
}

// kernelStats is the time one tensor.Backend method was busy.
type kernelStats struct {
	Name   string `json:"name"`
	Calls  int64  `json:"calls"`
	BusyNS int64  `json:"busy_ns"`
}

// Kernel indices of timedBackend.stats.
const (
	kMatMul = iota
	kDenseFwd
	kDenseBwd
	kConvFwd
	kConvBwd
	kPoolFwd
	kPoolBwd
	kReLU
	kAxpyScale
	kParallelFor
	kCount
)

var kernelNames = [kCount]string{"matmul", "dense_fwd", "dense_bwd", "conv_fwd", "conv_bwd",
	"pool_fwd", "pool_bwd", "relu", "axpy_scale", "parallel_for"}

// timedBackend is the tensor.Backend decorator of a traced run: it embeds
// the real backend, forwards every method, and counts calls and busy time
// per kernel family. The simulator calls kernels from one goroutine at a
// time (the evaluator's shards run on undecorated replicas), so plain
// counters suffice; the sharded evaluation itself is timed as
// parallel_for.
type timedBackend struct {
	tensor.Backend
	stats [kCount]kernelStats
}

func newTimedBackend(be tensor.Backend) *timedBackend {
	t := &timedBackend{Backend: be}
	for i := range t.stats {
		t.stats[i].Name = kernelNames[i]
	}
	return t
}

// busy is the total time spent inside the backend.
func (t *timedBackend) busy() time.Duration {
	var sum int64
	for _, k := range t.stats {
		sum += k.BusyNS
	}
	return time.Duration(sum)
}

func (t *timedBackend) done(k int, start time.Time) {
	t.stats[k].Calls++
	t.stats[k].BusyNS += time.Since(start).Nanoseconds()
}

// ParallelFor forwards the optional runner fl's evaluator shards on; a
// backend without one runs the body inline, as the evaluator itself would.
func (t *timedBackend) ParallelFor(n int, fn func(lo, hi int)) {
	defer t.done(kParallelFor, time.Now())
	if r, ok := t.Backend.(interface {
		ParallelFor(n int, fn func(lo, hi int))
	}); ok {
		r.ParallelFor(n, fn)
	} else if n > 0 {
		fn(0, n)
	}
}

func (t *timedBackend) MatMul(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	defer t.done(kMatMul, time.Now())
	return t.Backend.MatMul(a, b)
}

func (t *timedBackend) MatMulTransA(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	defer t.done(kMatMul, time.Now())
	return t.Backend.MatMulTransA(a, b)
}

func (t *timedBackend) MatMulTransB(a, b *tensor.Tensor) (*tensor.Tensor, error) {
	defer t.done(kMatMul, time.Now())
	return t.Backend.MatMulTransB(a, b)
}

func (t *timedBackend) DenseForward(w, bias, x *tensor.Tensor) (*tensor.Tensor, error) {
	defer t.done(kDenseFwd, time.Now())
	return t.Backend.DenseForward(w, bias, x)
}

func (t *timedBackend) DenseBackward(w, x, gy, gw, gb *tensor.Tensor) (*tensor.Tensor, error) {
	defer t.done(kDenseBwd, time.Now())
	return t.Backend.DenseBackward(w, x, gy, gw, gb)
}

func (t *timedBackend) DenseForwardFused(w, bias, x *tensor.Tensor, act tensor.Activation, ws *tensor.Workspace) (*tensor.Tensor, error) {
	defer t.done(kDenseFwd, time.Now())
	return t.Backend.DenseForwardFused(w, bias, x, act, ws)
}

func (t *timedBackend) DenseBackwardFused(w, x, gy *tensor.Tensor, act tensor.Activation, gw, gb *tensor.Tensor, ws *tensor.Workspace) (*tensor.Tensor, error) {
	defer t.done(kDenseBwd, time.Now())
	return t.Backend.DenseBackwardFused(w, x, gy, act, gw, gb, ws)
}

func (t *timedBackend) Conv2D(x, w, b *tensor.Tensor, pad, stride int) (*tensor.Tensor, error) {
	defer t.done(kConvFwd, time.Now())
	return t.Backend.Conv2D(x, w, b, pad, stride)
}

func (t *timedBackend) Conv2DGrads(x, w, gy *tensor.Tensor, pad, stride int) (gx, gw, gb *tensor.Tensor, err error) {
	defer t.done(kConvBwd, time.Now())
	return t.Backend.Conv2DGrads(x, w, gy, pad, stride)
}

func (t *timedBackend) Conv2DFused(x, w, b *tensor.Tensor, pad, stride int, act tensor.Activation, ws *tensor.Workspace) (*tensor.Tensor, error) {
	defer t.done(kConvFwd, time.Now())
	return t.Backend.Conv2DFused(x, w, b, pad, stride, act, ws)
}

func (t *timedBackend) Conv2DGradsFused(x, w, gy *tensor.Tensor, pad, stride int, act tensor.Activation, gwAcc, gbAcc *tensor.Tensor, ws *tensor.Workspace) (*tensor.Tensor, error) {
	defer t.done(kConvBwd, time.Now())
	return t.Backend.Conv2DGradsFused(x, w, gy, pad, stride, act, gwAcc, gbAcc, ws)
}

func (t *timedBackend) MaxPool2D(x *tensor.Tensor, size int) (*tensor.Tensor, []int, error) {
	defer t.done(kPoolFwd, time.Now())
	return t.Backend.MaxPool2D(x, size)
}

func (t *timedBackend) MaxPool2DGrad(gy *tensor.Tensor, arg []int, inShape []int) (*tensor.Tensor, error) {
	defer t.done(kPoolBwd, time.Now())
	return t.Backend.MaxPool2DGrad(gy, arg, inShape)
}

func (t *timedBackend) MaxPool2DWS(x *tensor.Tensor, size int, ws *tensor.Workspace) (*tensor.Tensor, []int, error) {
	defer t.done(kPoolFwd, time.Now())
	return t.Backend.MaxPool2DWS(x, size, ws)
}

func (t *timedBackend) MaxPool2DGradWS(gy *tensor.Tensor, arg []int, inShape []int, ws *tensor.Workspace) (*tensor.Tensor, error) {
	defer t.done(kPoolBwd, time.Now())
	return t.Backend.MaxPool2DGradWS(gy, arg, inShape, ws)
}

func (t *timedBackend) ReLUFwd(x *tensor.Tensor, ws *tensor.Workspace) (*tensor.Tensor, error) {
	defer t.done(kReLU, time.Now())
	return t.Backend.ReLUFwd(x, ws)
}

func (t *timedBackend) ReLUBwd(gy *tensor.Tensor, ws *tensor.Workspace) (*tensor.Tensor, error) {
	defer t.done(kReLU, time.Now())
	return t.Backend.ReLUBwd(gy, ws)
}

func (t *timedBackend) Axpy(a float64, x, y []float64) {
	defer t.done(kAxpyScale, time.Now())
	t.Backend.Axpy(a, x, y)
}

func (t *timedBackend) Scale(a float64, x []float64) {
	defer t.done(kAxpyScale, time.Now())
	t.Backend.Scale(a, x)
}

func (t *timedBackend) AxpyT(a float64, x, y *tensor.Tensor) error {
	defer t.done(kAxpyScale, time.Now())
	return t.Backend.AxpyT(a, x, y)
}

func (t *timedBackend) ScaleT(a float64, x *tensor.Tensor) {
	defer t.done(kAxpyScale, time.Now())
	t.Backend.ScaleT(a, x)
}
