package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssdkeeper/internal/experiments"
	"ssdkeeper/internal/fleet"
	"ssdkeeper/internal/keeper"
	"ssdkeeper/internal/learn"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/wire"
)

// Serving workload shapes.
const (
	// wireWindow is fleet-wire's closed-loop depth: requests kept in
	// flight, pipelined over the two client connections.
	wireWindow = 64
	// clientConns bounds the benchmark's own connections to the router.
	clientConns = 2
	// Warm-up requests issued before timing: enough to dial every pooled
	// connection and fill the request pools on each hop.
	wireWarmup = 4000
	httpWarmup = 200
	// drainWait bounds how long the closed loops may take to finish their
	// in-flight requests once the measured window ends.
	drainWait = 30 * time.Second
)

// Accel per serving workload: simulated ns per wall ns (see BENCHMARK.json
// for the measurements behind each choice).
const (
	wireAccel = 20.0
	httpAccel = 1.0
)

// rig is one fresh serving fleet: two nodes built as ssdkeeperd builds them,
// a router proxying to both over wire, a router front (wire or HTTP) on
// loopback, and the benchmark's clients. Every run boots its own, because a
// migration ships the tenant's whole dispatched history and so costs more
// the longer a fleet has served.
type rig struct {
	http   bool // HTTP front (fleet-http) rather than wire (fleet-wire)
	nodes  []*fleetNode
	router *fleet.Router
	front  interface{ Close() error }
	serveW sync.WaitGroup
	book   *book
	pstats *policyStats
	nextID atomic.Uint64

	wc  *wire.Client
	hcs []*http.Client
	url string
}

type fleetNode struct {
	srv      *serve.Server
	url      string
	httpSrv  *http.Server
	wireSrv  *wire.Server
	drained  bool
	finalRes ssd.Result
}

// bootRig builds and warms a fleet. tr, when non-nil, wraps every layer
// boundary in spans and times the keepers' decisions.
func bootRig(ctx context.Context, env experiments.Env, m model, seed int64, httpFront bool, seconds int, tr *tracer) (r *rig, err error) {
	accel := wireAccel
	if httpFront {
		accel = httpAccel
	}
	r = &rig{http: httpFront}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	prov := m.prov
	if tr != nil {
		r.pstats = &policyStats{}
		prov = timedProvider{Provider: m.prov, st: r.pstats}
	}
	urls := make([]string, 2)
	wires := make([]string, 2)
	for i := range urls {
		k, err := keeper.NewWithProvider(keeperConfig(env), prov)
		if err != nil {
			return r, err
		}
		log := learn.NewLog(8192)
		s, err := serve.New(serve.Config{
			Device:        env.Device,
			Options:       env.Options,
			Season:        env.Season,
			Tenants:       tenants,
			QueueLen:      64,
			QueueDepth:    32,
			MaxBytes:      tenantBytes,
			Accel:         accel,
			ShardCount:    1,
			Sink:          log,
			AuditEvery:    time.Second,
			DegradedScore: 0.5,
		}, k)
		if err != nil {
			return r, err
		}
		s.SetSampleLog(log)
		s.Start()
		n := &fleetNode{srv: s}
		r.nodes = append(r.nodes, n)
		hl, err := listen()
		if err != nil {
			return r, err
		}
		n.url = "http://" + hl.Addr().String()
		n.httpSrv = &http.Server{Handler: s.Handler(30 * time.Second)}
		r.serve(n.httpSrv, hl)
		wl, err := listen()
		if err != nil {
			return r, err
		}
		var backend wire.Backend = s.Node
		if tr != nil {
			backend = tracedBackend{inner: s.Node, tr: tr, layer: layerNode, cnt: &tr.node}
		}
		n.wireSrv = wire.NewServer(backend)
		r.serve(n.wireSrv, wl)
		urls[i], wires[i] = n.url, wl.Addr().String()
	}
	r.router, err = fleet.NewRouter(fleet.Config{Nodes: urls, WireNodes: wires, Tenants: tenants})
	if err != nil {
		return r, err
	}
	// Loopback ports differ per run and the ring hashes addresses, so pin
	// placement: tenants 0,1 on the first node and 2,3 on the second gives
	// each node one write-heavy and one read-heavy tenant.
	for t := 0; t < tenants; t++ {
		if want := urls[t/2]; r.router.Owner(t) != want {
			if err := r.router.Migrate(t, want); err != nil {
				return r, fmt.Errorf("place tenant %d: %w", t, err)
			}
		}
	}
	fl, err := listen()
	if err != nil {
		return r, err
	}
	r.book = newBook(newStream(seed, env.Device.PageSize), accel, tr, seconds)
	if httpFront {
		var h http.Handler = r.router.Handler()
		if tr != nil {
			h = tracedHandler{inner: h, tr: tr}
		}
		hs := &http.Server{Handler: h}
		r.serve(hs, fl)
		r.front = hs
		r.url = "http://" + fl.Addr().String() + "/io"
		for i := 0; i < clientConns; i++ {
			r.hcs = append(r.hcs, &http.Client{
				Timeout: drainWait,
				Transport: &http.Transport{
					MaxConnsPerHost:     1,
					MaxIdleConnsPerHost: 1,
					DisableCompression:  true,
				},
			})
		}
		err = r.runHTTP(ctx, 0, httpWarmup, nil)
	} else {
		var backend wire.Backend = r.router.WireBackend()
		if tr != nil {
			backend = tracedBackend{inner: backend, tr: tr, layer: layerRouter}
		}
		ws := wire.NewServer(backend)
		r.serve(ws, fl)
		r.front = ws
		r.wc = wire.NewClient(fl.Addr().String(), clientConns)
		err = r.runWire(0, wireWarmup)
	}
	if err != nil {
		return r, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve runs an HTTP or wire server on ln until close stops it.
func (r *rig) serve(s interface{ Serve(net.Listener) error }, ln net.Listener) {
	r.serveW.Add(1)
	go func() {
		defer r.serveW.Done()
		s.Serve(ln)
	}()
}

// drain stops every node (once) and keeps its final device result.
func (r *rig) drain() {
	for _, n := range r.nodes {
		if !n.drained {
			n.finalRes = n.srv.Drain()
			n.drained = true
		}
	}
}

// close tears the rig down: clients, front, router, then each node is
// drained before its listeners close, and every serving goroutine is
// waited for.
func (r *rig) close() {
	if r.wc != nil {
		r.wc.Close()
	}
	for _, c := range r.hcs {
		c.CloseIdleConnections()
	}
	if r.front != nil {
		r.front.Close()
	}
	if r.router != nil {
		r.router.Close()
	}
	r.drain()
	for _, n := range r.nodes {
		if n.wireSrv != nil {
			n.wireSrv.Close()
		}
		if n.httpSrv != nil {
			n.httpSrv.Close()
		}
	}
	r.serveW.Wait()
}

// wireLoop is fleet-wire's event-driven closed loop: each completion, on the
// client connection's read goroutine, issues the next request, so the
// generator needs no goroutine per request.
type wireLoop struct {
	r      *rig
	stopAt int64  // no request is issued at or after this instant (0: none)
	lastID uint64 // no id above this is issued (0: unbounded)
	lanes  sync.WaitGroup
}

func (l *wireLoop) issue() {
	id := l.r.nextID.Add(1)
	if (l.lastID != 0 && id > l.lastID) || (l.stopAt != 0 && now() >= l.stopAt) {
		l.lanes.Done()
		return
	}
	b := l.r.book
	b.begin(id)
	if err := l.r.wc.Start(b.gen.request(id), id, l); err != nil {
		b.finish(id, 0, outFailed)
		l.lanes.Done()
	}
}

// Done implements wire.Observer.
func (l *wireLoop) Done(tag uint64, latencyNS, _ int64, reason string, err error) {
	out := outOK
	switch {
	case err != nil:
		out = outFailed
	case reason != "":
		out = outRejected
	}
	l.r.book.finish(tag, latencyNS, out)
	l.issue()
}

// runWire runs the closed loop until the id bound or the stop instant.
func (r *rig) runWire(stopAt int64, lastID uint64) error {
	l := &wireLoop{r: r, stopAt: stopAt, lastID: lastID}
	l.lanes.Add(wireWindow)
	for i := 0; i < wireWindow; i++ {
		l.issue()
	}
	return waitTimeout(&l.lanes, stopAt, "fleet-wire closed loop")
}

// waitTimeout waits for wg, failing once drainWait has passed after stopAt
// (or after now, for id-bounded loops).
func waitTimeout(wg *sync.WaitGroup, stopAt int64, what string) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	limit := drainWait
	if stopAt > 0 {
		limit += time.Duration(stopAt - now())
	}
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		return fmt.Errorf("%s: requests still in flight %v after the window", what, drainWait)
	}
}

// runHTTP runs fleet-http's two closed-loop clients, each on its own
// keep-alive connection, until the id bound or the stop instant. migrate,
// when set, runs alongside on the calling goroutine.
func (r *rig) runHTTP(ctx context.Context, stopAt int64, lastID uint64, migrate func() error) error {
	var wg sync.WaitGroup
	for _, c := range r.hcs {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var body, resp bytes.Buffer
			for ctx.Err() == nil {
				id := r.nextID.Add(1)
				if (lastID != 0 && id > lastID) || (stopAt != 0 && now() >= stopAt) {
					return
				}
				r.book.begin(id)
				lat, out := r.post(c, id, &body, &resp)
				r.book.finish(id, lat, out)
			}
		}(c)
	}
	var merr error
	if migrate != nil {
		merr = migrate()
	}
	if err := waitTimeout(&wg, stopAt, "fleet-http clients"); err != nil {
		return err
	}
	return merr
}

// post sends one JSON /io request through the router front.
func (r *rig) post(c *http.Client, id uint64, body, resp *bytes.Buffer) (int64, int) {
	req := r.book.gen.request(id)
	op := "read"
	if req.Op == trace.Write {
		op = "write"
	}
	body.Reset()
	b := body.AvailableBuffer()
	b = append(b, `{"tenant":`...)
	b = strconv.AppendInt(b, int64(req.Tenant), 10)
	b = append(b, `,"op":"`...)
	b = append(b, op...)
	b = append(b, `","offset":`...)
	b = strconv.AppendInt(b, req.Offset, 10)
	b = append(b, `,"size":`...)
	b = strconv.AppendInt(b, int64(req.Size), 10)
	b = append(b, `,"key":`...)
	b = strconv.AppendUint(b, req.Key, 10)
	b = append(b, '}')
	body.Write(b)
	hr, err := http.NewRequest(http.MethodPost, r.url, body)
	if err != nil {
		return 0, outFailed
	}
	hr.Header.Set("Content-Type", "application/json")
	hr.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	res, err := c.Do(hr)
	if err != nil {
		return 0, outFailed
	}
	resp.Reset()
	_, err = resp.ReadFrom(res.Body)
	res.Body.Close()
	switch {
	case err != nil:
		return 0, outFailed
	case res.StatusCode == http.StatusOK:
		var reply struct {
			LatencyNS int64 `json:"latency_ns"`
		}
		if json.Unmarshal(resp.Bytes(), &reply) != nil {
			return 0, outFailed
		}
		return reply.LatencyNS, outOK
	case res.StatusCode == http.StatusTooManyRequests,
		res.StatusCode == http.StatusServiceUnavailable,
		res.StatusCode == http.StatusGatewayTimeout:
		return 0, outRejected
	default:
		return 0, outFailed
	}
}

// servingRun is one measured serving phase.
type servingRun struct {
	seconds   float64
	attempted int64
	failed    int64
	rejected  int64
	// throughput and rttP50MS are the reported figures: on the CPU-bound
	// fleet-wire loop per second of CPU left to the program, on fleet-http as
	// measured (see README.md, Noise).
	throughput, rttP50MS float64
	// wallThroughput and wallRTTP50MS are the uncorrected figures, and
	// stolenFrac the share of the program's CPU time stolen during the window.
	wallThroughput, wallRTTP50MS, stolenFrac float64
	rtt                                      *hist // ns
	readLat                                  *hist // modelled read latencies, ns
	overhead                                 *hist // RTT minus modelled latency ÷ accel, ns
	totalUS                                  float64
	migrateMS                                []float64
	proc                                     procDelta
	checks                                   []string
}

// measure runs the rig's workload for the given wall window: fleet-wire's
// closed loop, or fleet-http's clients with a tenant migrated to the other
// node at one third of the window and back at two thirds.
func (r *rig) measure(ctx context.Context, seconds int) (servingRun, error) {
	b := r.book
	b.measureFrom.Store(r.nextID.Load() + 1)
	start := now()
	window := int64(seconds) * int64(time.Second)
	stopAt := start + window
	b.windowStart.Store(start)
	p0 := readProc()
	steal := newStealSampler(start, seconds)
	var run servingRun
	var err error
	if r.http {
		err = r.runHTTP(ctx, stopAt, 0, func() error {
			return r.migrations(start, window, &run)
		})
	} else {
		err = r.runWire(stopAt, 0)
	}
	stolen := steal.stop()
	if err != nil {
		return run, err
	}
	p1 := readProc()
	run.seconds = float64(window) / 1e9
	running := runtime.GOMAXPROCS(0)
	var total int64
	for _, s := range stolen {
		total += s
	}
	run.stolenFrac = lostShare(total, running, float64(window))
	run.wallThroughput = b.throughput(make([]int64, seconds), running)
	run.wallRTTP50MS = ms(b.rtt.percentile(50))
	run.throughput, run.rttP50MS = run.wallThroughput, run.wallRTTP50MS
	if !r.http {
		// A closed loop that keeps its processor busy completes less and
		// its round trips stretch with the CPU taken away; fleet-http's
		// mostly idle loop is paced by timers instead, so it is not
		// corrected.
		run.throughput = b.throughput(stolen, running)
		run.rttP50MS *= 1 - run.stolenFrac
	}
	run.attempted = b.mIssued.Load()
	run.rejected = b.mOutcome[outRejected].Load()
	run.failed = b.mOutcome[outFailed].Load() + run.rejected
	run.rtt, run.readLat, run.overhead = b.rtt, b.readLat, b.ovh
	run.totalUS = b.totalUS()
	run.proc = procBetween(p0, p1, run.attempted)
	run.checks = append(run.checks, r.accounting()...)
	return run, nil
}

// stealSampler records the CPU time stolen from the VM in each wall second
// of a measured window.
type stealSampler struct {
	stolen []int64
	quit   chan struct{}
	done   chan struct{}
}

func newStealSampler(start int64, seconds int) *stealSampler {
	s := &stealSampler{stolen: make([]int64, seconds), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		prev := stealNS()
		for i := range s.stolen {
			t := time.NewTimer(time.Duration(start + int64(i+1)*1e9 - now()))
			select {
			case <-t.C:
			case <-s.quit:
				t.Stop()
				return
			}
			cur := stealNS()
			s.stolen[i], prev = cur-prev, cur
		}
	}()
	return s
}

// stop ends sampling and returns the per-second steal.
func (s *stealSampler) stop() []int64 {
	close(s.quit)
	<-s.done
	return s.stolen
}

// migrations moves tenant 0 to the second node at one third of the window
// and back at two thirds, timing each Router.Migrate.
func (r *rig) migrations(start, window int64, run *servingRun) error {
	for i, to := range []int{1, 0} {
		time.Sleep(time.Duration(start + window*int64(i+1)/3 - now()))
		target := r.nodes[to].url
		t0 := now()
		if err := r.router.Migrate(0, target); err != nil {
			run.checks = append(run.checks, fmt.Sprintf("migration %d of tenant 0 failed: %v", i+1, err))
			continue
		}
		run.migrateMS = append(run.migrateMS, float64(now()-t0)/1e6)
		if got := r.router.Owner(0); got != target {
			run.checks = append(run.checks, fmt.Sprintf("migration %d: tenant 0 owned by %s, want %s", i+1, got, target))
		}
	}
	return nil
}

// accounting checks the rig's whole life (warm-up included): every request
// id answered exactly once, and the clients' OK count equal to the nodes'
// completed count summed over both nodes — across any migrations.
func (r *rig) accounting() []string {
	b := r.book
	var bad []string
	if n := b.dup.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d replies for ids not in flight (duplicate or unknown)", n))
	}
	if n := b.overflow.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d requests outlived the %d-slot id ring", n, ringMask+1))
	}
	if iss, ans := b.issued.Load(), b.answered.Load(); iss != ans {
		bad = append(bad, fmt.Sprintf("%d requests issued, %d answered", iss, ans))
	}
	if n := b.bad.Load(); n > 0 {
		bad = append(bad, fmt.Sprintf("%d OK replies without a modelled latency", n))
	}
	var completed uint64
	for _, n := range r.nodes {
		for t := 0; t < tenants; t++ {
			completed += n.srv.TenantCompleted(t)
		}
	}
	if ok := uint64(b.ok.Load()); ok != completed {
		bad = append(bad, fmt.Sprintf("clients saw %d OK replies, nodes completed %d", ok, completed))
	}
	return bad
}

// nodeCounter sums a simulation probe counter over the nodes' /metrics.
func (r *rig) nodeCounter(name string) int64 {
	var total int64
	want := fmt.Sprintf("ssdkeeper_sim_counter{name=%q} ", name)
	for _, n := range r.nodes {
		rec := httptest.NewRecorder()
		n.srv.Handler(time.Second).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		total += promValue(rec.Body.String(), want)
	}
	return total
}

// routerCounter reads one router metric sample (name with labels, then a
// space) from Router.WriteMetrics.
func (r *rig) routerCounter(series string) int64 {
	var buf bytes.Buffer
	r.router.WriteMetrics(&buf)
	return promValue(buf.String(), series)
}

func promValue(text, prefix string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}
