package main

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/policy"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/wire"
)

// clock is the benchmark's monotonic time base; every span and RTT stamp is
// nanoseconds since process start.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// ringBits sizes the per-layer span rings: a request id's slot is id mod
// 2^ringBits, so a slot is reused only after that many newer requests were
// issued. Closed loops keep at most a few dozen requests in flight; a reused
// slot whose occupant is still open is counted as an overflow and fails the
// run rather than corrupting a span.
const (
	ringBits = 17
	ringMask = 1<<ringBits - 1
)

// Span layers, innermost last. A request's spans share its id (the request's
// Key); each layer's parent is the one above it.
const (
	layerRouter = iota // router front: WireBackend.SubmitTo → Complete, or Router.Handler
	layerNode          // node backend: Node.SubmitTo → Complete
	numLayers
)

// spanSlot is one layer's span for one request id, in preallocated memory.
// It doubles as the serve.Completion wrapper: Complete stamps the end, then
// calls through. Stamps are atomic because the reader
// (the client's completion) learns of them over a socket, which the Go
// memory model does not count as synchronization.
type spanSlot struct {
	id    atomic.Uint64
	start atomic.Int64
	end   atomic.Int64
	next  serve.Completion
	cnt   *layerCounts
}

// Complete implements serve.Completion: stamp a preallocated slot and call
// through, never blocking.
func (s *spanSlot) Complete(resp serve.Response, err error) {
	s.end.Store(now())
	if s.cnt != nil {
		s.cnt.count(err)
	}
	next := s.next
	s.next = nil
	next.Complete(resp, err)
}

// span returns the slot's interval if it belongs to id and has ended.
func (s *spanSlot) span(id uint64) (interval, bool) {
	if s.id.Load() != id {
		return interval{}, false
	}
	iv := interval{start: s.start.Load(), end: s.end.Load()}
	return iv, iv.end >= iv.start && iv.start > 0
}

// layerCounts tallies a layer's completions and its rejections by serve
// reason.
type layerCounts struct {
	ok                                    atomic.Int64
	queueFull, migrating, draining, other atomic.Int64
}

func (r *layerCounts) count(err error) {
	if err == nil {
		r.ok.Add(1)
		return
	}
	switch serve.RejectReason(err) {
	case "queue_full":
		r.queueFull.Add(1)
	case "migrating":
		r.migrating.Add(1)
	case "draining":
		r.draining.Add(1)
	default:
		r.other.Add(1)
	}
}

// tracer owns the span rings of one traced run.
type tracer struct {
	slots [numLayers][]spanSlot
	node  layerCounts
}

func newTracer() *tracer {
	t := &tracer{}
	for l := range t.slots {
		t.slots[l] = make([]spanSlot, ringMask+1)
	}
	return t
}

func (t *tracer) slot(layer int, id uint64) *spanSlot { return &t.slots[layer][id&ringMask] }

// open stamps the start of a layer's span for id.
func (t *tracer) open(layer int, id uint64) *spanSlot {
	s := t.slot(layer, id)
	s.end.Store(0)
	s.start.Store(now())
	s.id.Store(id)
	return s
}

// tracedBackend wraps a wire.Backend (a node, or the router's wire front) so
// each submission opens a span that its completion closes.
type tracedBackend struct {
	inner wire.Backend
	tr    *tracer
	layer int
	cnt   *layerCounts // nil: this layer's outcomes are not tallied
}

// SubmitTo implements wire.Backend.
func (b tracedBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	s := b.tr.open(b.layer, req.Key)
	s.next, s.cnt = c, b.cnt
	err := b.inner.SubmitTo(req, s)
	if err != nil {
		// Synchronous rejection: the backend never calls Complete.
		s.next = nil
		s.end.Store(now())
		if b.cnt != nil {
			b.cnt.count(err)
		}
	}
	return err
}

// requestIDHeader carries the request id to the router's HTTP handler
// wrapper; the JSON body's "key" carries it on to the nodes.
const requestIDHeader = "X-Request-Id"

// tracedHandler wraps Router.Handler so each request opens and closes a
// router-layer span.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
	if err != nil || id == 0 {
		h.inner.ServeHTTP(w, r)
		return
	}
	s := h.tr.open(layerRouter, id)
	h.inner.ServeHTTP(w, r)
	s.end.Store(now())
}

// policyStats counts and times decisions through a timedProvider.
type policyStats struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// timedProvider wraps a policy.Provider so every policy it instantiates is
// timed. Policies that decide in batches keep doing so through the wrapper,
// so a traced keeper takes the same decision path as an untraced one.
type timedProvider struct {
	policy.Provider
	st *policyStats
}

func (p timedProvider) NewPolicy() policy.Policy {
	inner := p.Provider.NewPolicy()
	tp := timedPolicy{inner: inner, st: p.st}
	if bp, ok := inner.(policy.BatchPolicy); ok {
		return timedBatchPolicy{timedPolicy: tp, batch: bp}
	}
	return tp
}

type timedPolicy struct {
	inner policy.Policy
	st    *policyStats
}

func (p timedPolicy) Decide(v features.Vector) (alloc.Strategy, error) {
	t0 := now()
	s, err := p.inner.Decide(v)
	p.st.ns.Add(now() - t0)
	p.st.calls.Add(1)
	return s, err
}

type timedBatchPolicy struct {
	timedPolicy
	batch policy.BatchPolicy
}

func (p timedBatchPolicy) DecideBatch(vs []features.Vector, out []alloc.Strategy) error {
	t0 := now()
	err := p.batch.DecideBatch(vs, out)
	p.st.ns.Add(now() - t0)
	p.st.calls.Add(int64(len(vs)))
	return err
}
