package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/wire"
)

// Migration gate policies: what the router does with a migrating tenant's
// requests while its handoff is in flight.
const (
	// GateQueue holds the request at the router until the migration
	// completes (bounded by Config.GateWait), then forwards to the new
	// owner. Clients see added latency, not errors.
	GateQueue = "queue"
	// GateReject answers 503 with Retry-After immediately — the documented
	// migration window; clients retry and land on the new owner.
	GateReject = "reject"
)

// Config parameterizes a Router.
type Config struct {
	// Nodes is the fleet's node base URLs (http://host:port). The ring is
	// built over the set; order does not matter.
	Nodes []string
	// VNodes is the virtual-node count per node (default 64).
	VNodes int
	// Tenants is the tenant-ID space routed (default 4, matching the
	// nodes' default).
	Tenants int
	// GatePolicy is GateQueue (default) or GateReject.
	GatePolicy string
	// GateWait bounds how long a queued request waits for a migration
	// before giving up with 503 (default 15s).
	GateWait time.Duration
	// ReqTimeout bounds each proxied request (default 60s; batches ride
	// the same budget) and each control-plane call to a node.
	ReqTimeout time.Duration
	// WireNodes is the wire data plane, required: entry i is the wire
	// (host:port) address of Nodes[i]. Proxied I/O rides persistent
	// multiplexed wire connections; HTTP is the nodes' control plane
	// (drain/handoff/release, status, metrics) only.
	WireNodes []string
	// WireConns sizes the per-node wire connection pool (default 4; each
	// connection pipelines any number of in-flight requests, so this is
	// about spreading demux work, not about concurrency limits).
	WireConns int
}

func (c *Config) fillDefaults() {
	if c.VNodes == 0 {
		c.VNodes = defaultVNodes
	}
	if c.Tenants == 0 {
		c.Tenants = 4
	}
	if c.GatePolicy == "" {
		c.GatePolicy = GateQueue
	}
	if c.GateWait == 0 {
		c.GateWait = 15 * time.Second
	}
	if c.ReqTimeout == 0 {
		c.ReqTimeout = 60 * time.Second
	}
	if c.WireConns == 0 {
		c.WireConns = 4
	}
}

// routeTable is the router's placement state, swapped whole through one
// atomic pointer (copy-on-write): the proxy hot path does one load and no
// locking; only the migration path (serialized by Router.migMu) publishes
// new tables.
type routeTable struct {
	version   uint64
	ring      *Ring
	overrides map[int]string        // tenant → owner, where it differs from the ring
	migrating map[int]chan struct{} // tenant → gate, closed when its migration ends
}

// owner resolves a tenant's current owner: explicit override first (the
// migration history), ring placement otherwise.
func (t *routeTable) owner(tenant int) string {
	if addr, ok := t.overrides[tenant]; ok {
		return addr
	}
	return t.ring.Owner(tenant)
}

// Router proxies client I/O to each tenant's owner node and executes
// tenant migrations. It is the fleet's only writer of placement state;
// nodes stay ignorant of each other.
type Router struct {
	cfg     Config
	client  *http.Client // control plane: drain, handoff, release
	table   atomic.Pointer[routeTable]
	met     metrics
	members *Membership // optional; enriches /fleet/status and /metrics

	// wires maps a node's base URL to its persistent wire client. Built
	// once at construction; connections dial lazily and redial after
	// failures.
	wires map[string]*wire.Client

	// migMu serializes migrations: one tenant moves at a time, so the
	// drain/handoff/flip sequence never interleaves with another move of
	// the same (or any) tenant.
	migMu sync.Mutex
}

// NewRouter builds a router over the given fleet. The ring is constructed
// once; placement changes only through Migrate's overrides.
func NewRouter(cfg Config) (*Router, error) {
	cfg.fillDefaults()
	ring, err := NewRing(cfg.Nodes, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.GatePolicy != GateQueue && cfg.GatePolicy != GateReject {
		return nil, fmt.Errorf("fleet: unknown gate policy %q", cfg.GatePolicy)
	}
	if len(cfg.WireNodes) != len(cfg.Nodes) {
		return nil, fmt.Errorf("fleet: %d wire addresses for %d nodes", len(cfg.WireNodes), len(cfg.Nodes))
	}
	r := &Router{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.ReqTimeout},
		wires:  make(map[string]*wire.Client, len(cfg.Nodes)),
	}
	for i, wa := range cfg.WireNodes {
		if wa == "" {
			return nil, fmt.Errorf("fleet: node %s has no wire address", cfg.Nodes[i])
		}
		r.wires[cfg.Nodes[i]] = wire.NewClient(wa, cfg.WireConns)
	}
	r.table.Store(&routeTable{
		version:   1,
		ring:      ring,
		overrides: map[int]string{},
		migrating: map[int]chan struct{}{},
	})
	return r, nil
}

// Close tears down the router's persistent wire connections. In-flight
// calls fail with a transport error.
func (r *Router) Close() {
	for _, wc := range r.wires {
		wc.Close()
	}
}

// SetMembership attaches a prober whose snapshots enrich /fleet/status and
// /metrics. Call before serving.
func (r *Router) SetMembership(m *Membership) { r.members = m }

// publish swaps in a new route table derived from the current one. Caller
// must hold migMu (handlers only ever read the table).
func (r *Router) publish(mutate func(*routeTable)) *routeTable {
	cur := r.table.Load()
	next := &routeTable{
		version:   cur.version + 1,
		ring:      cur.ring,
		overrides: make(map[int]string, len(cur.overrides)),
		migrating: make(map[int]chan struct{}, len(cur.migrating)),
	}
	for k, v := range cur.overrides {
		next.overrides[k] = v
	}
	for k, v := range cur.migrating {
		next.migrating[k] = v
	}
	mutate(next)
	r.table.Store(next)
	return next
}

// Owner returns the tenant's current owner node.
func (r *Router) Owner(tenant int) string { return r.table.Load().owner(tenant) }

// resolve returns the tenant's owner once any in-flight migration of that
// tenant has been dealt with per the gate policy; a gate rejection returns
// serve.ErrTenantMigrating.
func (r *Router) resolve(tenant int) (string, error) {
	deadline := time.Now().Add(r.cfg.GateWait)
	for {
		tab := r.table.Load()
		gate, mig := tab.migrating[tenant]
		if !mig {
			return tab.owner(tenant), nil
		}
		if r.cfg.GatePolicy == GateReject {
			r.met.gateRejects.Add(1)
			return "", serve.ErrTenantMigrating
		}
		r.met.gateWaits.Add(1)
		wait := time.Until(deadline)
		if wait <= 0 {
			r.met.gateRejects.Add(1)
			return "", serve.ErrTenantMigrating
		}
		t := time.NewTimer(wait)
		select {
		case <-gate:
			t.Stop()
			// Re-load the table: the migration published a new owner.
		case <-t.C:
			r.met.gateRejects.Add(1)
			return "", serve.ErrTenantMigrating
		}
	}
}

// Handler returns the router's HTTP surface: the proxied data plane
// (/io, /io/batch), the fleet control plane (/fleet/status, /fleet/migrate),
// and the usual /metrics, /healthz, /readyz.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/io", r.handleIO)
	mux.HandleFunc("/io/batch", r.handleBatch)
	mux.HandleFunc("/fleet/status", r.handleStatus)
	mux.HandleFunc("/fleet/migrate", r.handleMigrate)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WriteMetrics(w)
	})
	ok := func(w http.ResponseWriter, req *http.Request) { fmt.Fprintln(w, "ok") }
	mux.HandleFunc("/healthz", ok)
	// The router holds no device state; it is ready as soon as it routes.
	mux.HandleFunc("/readyz", ok)
	return mux
}

// ioBodyPool recycles /io request bodies, ioRespPool the rendered
// responses, and ioWaitPool the completions handlers wait on, so the proxy
// fast path reads, decodes, forwards, and renders without per-request
// allocations of its own.
var (
	ioBodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	ioRespPool = sync.Pool{New: func() any {
		b := make([]byte, 0, 64)
		return &b
	}}
	ioWaitPool = sync.Pool{New: func() any {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return &ioWait{done: make(chan struct{}, 1), timer: t}
	}}
)

// ioWait is the Completion an /io handler blocks on. The completer writes
// the outcome and then signals done (buffered, so it never blocks); the
// handler reads the fields only after receiving the signal.
type ioWait struct {
	done  chan struct{}
	timer *time.Timer
	resp  serve.Response
	err   error
}

func (iw *ioWait) Complete(resp serve.Response, err error) {
	iw.resp, iw.err = resp, err
	iw.done <- struct{}{}
}

// handleIO proxies one JSON request to its tenant's owner through forward
// and waits for the outcome, at most ReqTimeout. A wait that times out
// abandons its ioWait to the garbage collector instead of repooling it:
// the upstream may still complete into it.
func (r *Router) handleIO(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	bodyBuf := ioBodyPool.Get().(*bytes.Buffer)
	bodyBuf.Reset()
	defer ioBodyPool.Put(bodyBuf)
	if _, err := bodyBuf.ReadFrom(http.MaxBytesReader(w, req.Body, 1<<20)); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sreq, err := serve.DecodeJSONRequest(bodyBuf.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	iw := ioWaitPool.Get().(*ioWait)
	iw.timer.Reset(r.cfg.ReqTimeout)
	r.forward(sreq, iw)
	select {
	case <-iw.done:
	case <-iw.timer.C:
		r.met.proxyErrs.Add(1)
		writeReject(w, wire.ErrUpstream)
		return
	}
	resp, err := iw.resp, iw.err
	if iw.timer.Stop() { // a stopped timer leaves no stale tick behind
		iw.resp, iw.err = serve.Response{}, nil
		ioWaitPool.Put(iw)
	}
	if err != nil {
		writeReject(w, err)
		return
	}
	bp := ioRespPool.Get().(*[]byte)
	out := serve.AppendIOResponse((*bp)[:0], int64(resp.Latency), int64(resp.At))
	w.Header().Set("Content-Type", "application/json")
	w.Write(out)
	*bp = out[:0]
	ioRespPool.Put(bp)
}

// writeReject answers a forwarded request's error as the node's own front
// end would (serve.WriteReject), so clients cannot tell that a router
// stands in between; an upstream failure is a 502.
func writeReject(w http.ResponseWriter, err error) {
	if errors.Is(err, wire.ErrUpstream) {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	serve.WriteReject(w, err)
}

// Batch bounds, aligned with the node-side decoder (serve/http.go): the
// body cap matches, the line cap matches, and an oversized line answers a
// clear 400 instead of silently truncating the batch.
const (
	maxBatchBody  = 4 << 20
	maxBatchLines = 65536
)

// batchLine is one scanned line and the Completion its outcome lands in,
// from whichever goroutine resolves it. Complete fills ok/lat/reason, then
// publishes with an atomic store to state; the renderer reads the fields
// only after observing the store (lines never resolved by the deadline
// render as upstream failures without touching the racy fields).
type batchLine struct {
	st     *batchState // nil for a line rejected at decode: resolved, never forwarded
	req    serve.Request
	state  uint32 // 0 in flight, 1 resolved (atomic)
	ok     bool
	lat    int64
	reason string // interned rejection token
}

func (l *batchLine) Complete(resp serve.Response, err error) {
	if err != nil {
		l.reason = wire.RejectToken(err)
	} else {
		l.ok, l.lat = true, int64(resp.Latency)
	}
	atomic.StoreUint32(&l.state, 1)
	if l.st.remaining.Add(-1) == 0 {
		close(l.st.done)
	}
}

// batchState is a batch's whole scratch space, pooled so the steady-state
// scatter/gather path allocates nothing. A state whose lines all completed
// goes back to the pool; one abandoned at the deadline is left to the
// garbage collector, because late completions still hold it.
type batchState struct {
	lines     []batchLine
	remaining atomic.Int64
	done      chan struct{}
}

var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

var (
	batchScanPool = sync.Pool{New: func() any {
		b := make([]byte, 64<<10)
		return &b
	}}
	batchWriterPool = sync.Pool{New: func() any {
		return bufio.NewWriterSize(nil, 32<<10)
	}}
)

// handleBatch proxies a line-protocol batch: every decodable line goes
// through forward with its own batchLine as the Completion, so lines
// pipeline individually onto the owners' persistent connections and their
// outcomes land straight in place. The replies render in the original line
// order once every line completed or ReqTimeout passed. Steady state
// allocates nothing: the scan buffer, line table, and writer are pooled,
// and lines are decoded with DecodeLineBytes straight off the scanner's
// buffer.
func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	st := batchStatePool.Get().(*batchState)
	st.lines = st.lines[:0]
	abandoned := false
	defer func() {
		if !abandoned {
			batchStatePool.Put(st)
		}
	}()

	bufp := batchScanPool.Get().(*[]byte)
	defer batchScanPool.Put(bufp)
	sc := bufio.NewScanner(http.MaxBytesReader(w, req.Body, maxBatchBody))
	sc.Buffer(*bufp, maxBatchBody)
	inflight := int64(0)
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if len(st.lines) >= maxBatchLines {
			http.Error(w, fmt.Sprintf("batch exceeds %d lines", maxBatchLines), http.StatusBadRequest)
			return
		}
		sreq, err := serve.DecodeLineBytes(raw)
		if err != nil {
			st.lines = append(st.lines, batchLine{state: 1, reason: "invalid"})
			continue
		}
		st.lines = append(st.lines, batchLine{st: st, req: sreq})
		inflight++
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("batch line exceeds %d bytes", maxBatchBody)
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Scatter: the outboxes coalesce the pipelined frames into few writes.
	if inflight > 0 {
		st.remaining.Store(inflight)
		st.done = make(chan struct{})
		for i := range st.lines {
			if l := &st.lines[i]; l.st != nil {
				r.forward(l.req, l)
			}
		}
		t := time.NewTimer(r.cfg.ReqTimeout)
		select {
		case <-st.done:
			t.Stop()
		case <-t.C:
			abandoned = true // late completions still hold st; leave it to GC
		}
	}

	// Gather: render replies in original line order.
	w.Header().Set("Content-Type", "text/plain")
	bw := batchWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Flush()
		bw.Reset(nil)
		batchWriterPool.Put(bw)
	}()
	var num [20]byte
	for i := range st.lines {
		l := &st.lines[i]
		switch {
		case atomic.LoadUint32(&l.state) != 1:
			bw.WriteString("rej upstream")
		case l.ok:
			bw.WriteString("ok ")
			bw.Write(strconv.AppendInt(num[:0], l.lat, 10))
		default:
			bw.WriteString("rej ")
			bw.WriteString(l.reason)
		}
		bw.WriteByte('\n')
	}
}

// statusReply is /fleet/status's JSON document.
type statusReply struct {
	Nodes       []string          `json:"nodes"`
	WireNodes   map[string]string `json:"wire_nodes"` // node URL → wire addr
	RingVersion uint64            `json:"ring_version"`
	Tenants     map[string]string `json:"tenants"` // tenant → owner
	Migrating   []int             `json:"migrating,omitempty"`
	Ready       map[string]bool   `json:"ready,omitempty"`
	Migrations  map[string]uint64 `json:"migrations"`
}

func (r *Router) handleStatus(w http.ResponseWriter, req *http.Request) {
	tab := r.table.Load()
	st := statusReply{
		Nodes:       tab.ring.Nodes(),
		RingVersion: tab.version,
		Tenants:     map[string]string{},
		WireNodes:   map[string]string{},
		Migrations: map[string]uint64{
			"started":   r.met.migStarted.Load(),
			"completed": r.met.migCompleted.Load(),
			"aborted":   r.met.migAborted.Load(),
		},
	}
	for t := 0; t < r.cfg.Tenants; t++ {
		st.Tenants[strconv.Itoa(t)] = tab.owner(t)
	}
	for node, wc := range r.wires {
		st.WireNodes[node] = wc.Addr()
	}
	for t := range tab.migrating {
		st.Migrating = append(st.Migrating, t)
	}
	if r.members != nil {
		st.Ready = map[string]bool{}
		for _, ns := range r.members.Snapshot() {
			st.Ready[ns.Addr] = ns.Ready
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// handleMigrate is the fleet's admin lever: POST /fleet/migrate?tenant=N&to=URL
// moves a tenant to an explicit node. The rebalancer uses Migrate directly.
func (r *Router) handleMigrate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	tenant, err := strconv.Atoi(req.URL.Query().Get("tenant"))
	if err != nil || tenant < 0 || tenant >= r.cfg.Tenants {
		http.Error(w, "tenant: integer in range required", http.StatusBadRequest)
		return
	}
	target := req.URL.Query().Get("to")
	if err := r.Migrate(tenant, target); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	fmt.Fprintf(w, "tenant %d → %s\n", tenant, target)
}

// Migrate moves one tenant to the target node, live:
//
//  1. gate — publish the tenant as MIGRATING; new requests queue at the
//     router (or 503 per policy) while everything already admitted at the
//     source completes normally;
//  2. drain — POST source /tenant/drain quiesces the tenant's queues across
//     the source's shards and returns its dispatched-record log;
//  3. handoff — POST target /tenant/handoff replays the log there, so the
//     tenant's device footprint exists on the target before traffic does;
//  4. flip — publish the ring override and close the gate: queued requests
//     proceed to the new owner;
//  5. release — POST source /tenant/release reopens the source gate
//     (harmless; nothing routes there anymore).
//
// The drain completes (never discards) admitted work and the replay
// produces no client completions, so a migration loses nothing and
// duplicates nothing — the property the migration race test and the fleet
// smoke assert.
func (r *Router) Migrate(tenant int, target string) error {
	if tenant < 0 || tenant >= r.cfg.Tenants {
		return fmt.Errorf("fleet: tenant %d outside [0,%d)", tenant, r.cfg.Tenants)
	}
	r.migMu.Lock()
	defer r.migMu.Unlock()

	tab := r.table.Load()
	valid := false
	for _, n := range tab.ring.Nodes() {
		if n == target {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("fleet: %q is not a fleet node", target)
	}
	source := tab.owner(tenant)
	if source == target {
		return nil
	}

	start := time.Now()
	r.met.migStarted.Add(1)
	gate := make(chan struct{})
	r.publish(func(t *routeTable) { t.migrating[tenant] = gate })

	abort := func(err error) error {
		r.publish(func(t *routeTable) { delete(t.migrating, tenant) })
		close(gate)
		r.met.migAborted.Add(1)
		return err
	}

	drainResp, err := r.client.Post(
		fmt.Sprintf("%s/tenant/drain?tenant=%d", source, tenant), "", nil)
	if err != nil {
		return abort(fmt.Errorf("fleet: drain on %s: %w", source, err))
	}
	drainBody, _ := io.ReadAll(io.LimitReader(drainResp.Body, 1<<30))
	drainResp.Body.Close()
	if drainResp.StatusCode != http.StatusOK {
		return abort(fmt.Errorf("fleet: drain on %s: %s: %s",
			source, drainResp.Status, strings.TrimSpace(string(drainBody))))
	}

	handResp, err := r.client.Post(
		fmt.Sprintf("%s/tenant/handoff?tenant=%d", target, tenant),
		"application/json", bytes.NewReader(drainBody))
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(handResp.Body, 1<<20))
		handResp.Body.Close()
		if handResp.StatusCode != http.StatusOK {
			err = fmt.Errorf("fleet: handoff on %s: %s", target, handResp.Status)
		}
	} else {
		err = fmt.Errorf("fleet: handoff on %s: %w", target, err)
	}
	if err != nil {
		// Roll back: reopen the source so the tenant keeps serving where
		// its state still lives.
		r.release(source, tenant)
		return abort(err)
	}

	r.publish(func(t *routeTable) {
		t.overrides[tenant] = target
		delete(t.migrating, tenant)
	})
	close(gate)
	// Best-effort: the source's gate no longer matters for routing, but an
	// open gate keeps its /readyz honest.
	r.release(source, tenant)
	r.met.migCompleted.Add(1)
	r.met.handoffNS.Add(time.Since(start).Nanoseconds())
	return nil
}

// release reopens a node's tenant gate, best-effort.
func (r *Router) release(node string, tenant int) {
	resp, err := r.client.Post(
		fmt.Sprintf("%s/tenant/release?tenant=%d", node, tenant), "", nil)
	if err == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}
}
