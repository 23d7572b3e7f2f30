package fleet

import (
	"fmt"
	"sync"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/sim"
	"ssdkeeper/internal/wire"
)

// forward is the router's one data plane: every client front (HTTP /io,
// each /io/batch line, the router's own wire listener) hands its request
// here with the Completion that answers the client, and the outcome
// arrives there exactly once. The fast path spawns no goroutine: one
// atomic table load resolves the owner and the request pipelines onto the
// owner's wire client; the reply flows back through a pooled fwd. Only a
// tenant gated by a migration detaches onto a goroutine, because waiting
// out the gate blocks. One client request counts as one proxied request no
// matter how many retry attempts it takes.
func (r *Router) forward(req serve.Request, c serve.Completion) {
	if req.Tenant < 0 || req.Tenant >= r.cfg.Tenants {
		c.Complete(serve.Response{}, fmt.Errorf("fleet: tenant %d outside [0,%d)", req.Tenant, r.cfg.Tenants))
		return
	}
	tab := r.table.Load()
	if _, mig := tab.migrating[req.Tenant]; mig {
		go r.forwardGated(req, c, 0)
		return
	}
	r.met.proxied.Add(1)
	r.send(tab.owner(req.Tenant), req, c, 0)
}

// forwardGated resolves through the migration gate (blocking per policy)
// and then sends; it runs on its own goroutine.
func (r *Router) forwardGated(req serve.Request, c serve.Completion, attempt int) {
	owner, err := r.resolve(req.Tenant)
	if err != nil {
		c.Complete(serve.Response{}, err)
		return
	}
	if attempt == 0 {
		r.met.proxied.Add(1)
	}
	r.send(owner, req, c, attempt)
}

// send pipelines one request onto its owner's wire client.
func (r *Router) send(owner string, req serve.Request, c serve.Completion, attempt int) {
	fw := fwdPool.Get().(*fwd)
	fw.r, fw.req, fw.c, fw.attempt = r, req, c, attempt
	if err := r.wires[owner].Start(req, 0, fw); err != nil {
		fwdPool.Put(fw)
		r.met.proxyErrs.Add(1)
		c.Complete(serve.Response{}, wire.ErrUpstream)
	}
}

// fwd relays one wire completion from an upstream node back into the
// client's Completion. Pooled; Done runs on the upstream connection's read
// goroutine and must not block, so the migrating retry detaches.
type fwd struct {
	r       *Router
	req     serve.Request
	c       serve.Completion
	attempt int
}

var fwdPool = sync.Pool{New: func() any { return new(fwd) }}

// Done implements wire.Observer. It is the router's only migrating-retry
// site: a node that gated the tenant between the table load and the
// forward answers "migrating" before the request reached a device, so
// under the queue policy the request waits the migration out and retries
// at the new owner without risk of duplicating work.
func (f *fwd) Done(_ uint64, latencyNS, simNS int64, reason string, err error) {
	r, req, c, attempt := f.r, f.req, f.c, f.attempt
	f.r, f.req, f.c = nil, serve.Request{}, nil
	fwdPool.Put(f)
	switch {
	case err != nil:
		r.met.proxyErrs.Add(1)
		c.Complete(serve.Response{}, wire.ErrUpstream)
	case reason == "migrating" && r.cfg.GatePolicy == GateQueue && attempt < 4:
		go r.forwardGated(req, c, attempt+1)
	case reason != "":
		c.Complete(serve.Response{}, wire.ReasonError(reason))
	default:
		c.Complete(serve.Response{Latency: sim.Time(latencyNS), At: sim.Time(simNS)}, nil)
	}
}

// wireFront is the router's wire.Backend: a client speaking wire to the
// router is proxied over wire to the owner node with no HTTP anywhere on
// the data path.
type wireFront struct{ r *Router }

// WireBackend returns the backend to hand wire.NewServer for a router-side
// wire listener.
func (r *Router) WireBackend() wire.Backend { return wireFront{r} }

// SubmitTo implements wire.Backend; every outcome, rejections included,
// arrives through c.
func (f wireFront) SubmitTo(req serve.Request, c serve.Completion) error {
	f.r.forward(req, c)
	return nil
}
