package fleet

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/trace"
	"ssdkeeper/internal/wire"
)

// strandBackend completes the first limit requests inline and strands the
// rest without answering; with kill set it tears the server down instead,
// so in-flight requests die with their connection.
type strandBackend struct {
	limit int64
	n     atomic.Int64
	kill  atomic.Bool
	ws    *wire.Server
}

func (b *strandBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	if b.kill.Load() {
		go b.ws.Close() // not inline: Close waits for this read loop
		return nil
	}
	if b.n.Add(1) <= b.limit {
		c.Complete(serve.Response{Latency: 1000, At: 1}, nil)
	}
	return nil
}

// TestBatchWireUpstreamDies: a wire owner that answers part of a batch and
// strands or drops the rest must yield partial "ok" replies with the
// remainder "rej upstream" — bounded by the request timeout, never a hang.
func TestBatchWireUpstreamDies(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bk := &strandBackend{limit: 4}
	ws := wire.NewServer(bk)
	bk.ws = ws
	go ws.Serve(ln)
	defer ws.Close()
	up := httptest.NewServer(http.NewServeMux()) // ring/control plane only
	defer up.Close()

	r, err := NewRouter(Config{
		Nodes: []string{up.URL}, WireNodes: []string{ln.Addr().String()},
		WireConns:  1, // single conn: submissions reach the backend in line order
		ReqTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	batch := strings.Repeat("1 R 0 16384\n", 8)
	start := time.Now()
	resp, err := http.Post(front.URL+"/io/batch", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 8 {
		t.Fatalf("batch answered %d lines, want 8: %q", len(lines), data)
	}
	for i, ln := range lines {
		want := "ok 1000"
		if i >= 4 {
			want = "rej upstream"
		}
		if ln != want {
			t.Errorf("line %d = %q, want %q", i, ln, want)
		}
	}
	if elapsed < 300*time.Millisecond {
		t.Errorf("stranded batch answered in %v, before the %v deadline", elapsed, 400*time.Millisecond)
	}
	if elapsed > 5*time.Second {
		t.Errorf("stranded batch took %v", elapsed)
	}

	// Now the upstream dies under the batch: the connection sweep must fail
	// every line promptly — no ok, no hang.
	bk.kill.Store(true)
	resp, err = http.Post(front.URL+"/io/batch", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	lines = strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 8 {
		t.Fatalf("post-death batch answered %d lines, want 8: %q", len(lines), data)
	}
	for i, ln := range lines {
		if ln != "rej upstream" {
			t.Errorf("post-death line %d = %q, want rej upstream", i, ln)
		}
	}
}

// TestNewRouterNeedsWireAddrs: wire is the only router↔node data plane,
// so every node needs a wire address, in position with Nodes.
func TestNewRouterNeedsWireAddrs(t *testing.T) {
	nodes := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	for name, wires := range map[string][]string{
		"missing":     nil,
		"short":       {"127.0.0.1:3"},
		"empty entry": {"127.0.0.1:3", ""},
	} {
		if r, err := NewRouter(Config{Nodes: nodes, WireNodes: wires}); err == nil {
			r.Close()
			t.Errorf("%s: NewRouter accepted wire addresses %q", name, wires)
		}
	}
	r, err := NewRouter(Config{Nodes: nodes, WireNodes: []string{"127.0.0.1:3", "127.0.0.1:4"}})
	if err != nil {
		t.Fatalf("complete wire addresses: %v", err)
	}
	r.Close()
}

// migrateOnceBackend is a node that gated each request's tenant between
// the router's table load and the forward: the first submission of every
// request key is rejected as migrating, the second completes.
type migrateOnceBackend struct {
	mu   sync.Mutex
	subs map[uint64]int
}

func (b *migrateOnceBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	b.mu.Lock()
	b.subs[req.Key]++
	first := b.subs[req.Key] == 1
	b.mu.Unlock()
	if first {
		return serve.ErrTenantMigrating
	}
	c.Complete(serve.Response{Latency: 1000, At: 1}, nil)
	return nil
}

// TestMigratingRetryEveryFront: a node-side migrating rejection is handled
// the same way whichever client front carried the request — /io, each
// /io/batch line, and the router's wire listener all retry it under the
// queue policy (exactly two submissions, answer ok) and all pass it on
// under the reject policy (one submission, answer migrating).
func TestMigratingRetryEveryFront(t *testing.T) {
	for _, tc := range []struct {
		policy string
		subs   int
	}{{GateQueue, 2}, {GateReject, 1}} {
		t.Run(tc.policy, func(t *testing.T) {
			bk := &migrateOnceBackend{subs: map[uint64]int{}}
			_, waddr := startWireListener(t, bk)
			up := httptest.NewServer(http.NewServeMux()) // control plane only
			t.Cleanup(up.Close)
			r, err := NewRouter(Config{
				Nodes: []string{up.URL}, WireNodes: []string{waddr}, GatePolicy: tc.policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			front := httptest.NewServer(r.Handler())
			t.Cleanup(front.Close)
			_, wfront := startWireListener(t, r.WireBackend())
			wc := wire.NewClient(wfront, 1)
			t.Cleanup(wc.Close)
			retried := tc.policy == GateQueue

			// /io, request key 1.
			resp, err := http.Post(front.URL+"/io", "application/json",
				strings.NewReader(`{"tenant":1,"op":"read","offset":0,"size":16384,"key":1}`))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if retried && resp.StatusCode != http.StatusOK {
				t.Errorf("/io = %d %q, want 200", resp.StatusCode, body)
			}
			if !retried && (resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "migrating")) {
				t.Errorf("/io = %d %q, want 503 migrating", resp.StatusCode, body)
			}

			// /io/batch, request keys 2..5.
			resp, err = http.Post(front.URL+"/io/batch", "text/plain",
				strings.NewReader("1 R 0 16384 2\n1 W 0 16384 3\n1 R 16384 16384 4\n1 W 16384 16384 5\n"))
			if err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			want := "rej migrating"
			if retried {
				want = "ok 1000"
			}
			lines := strings.Split(strings.TrimSpace(string(body)), "\n")
			if len(lines) != 4 {
				t.Fatalf("batch answered %d lines, want 4: %q", len(lines), body)
			}
			for i, ln := range lines {
				if ln != want {
					t.Errorf("batch line %d = %q, want %q", i, ln, want)
				}
			}

			// Wire front, request key 6.
			_, _, reason, err := wc.Do(serve.Request{Tenant: 1, Op: trace.Read, Size: 16384, Key: 6}, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if retried && reason != "" || !retried && reason != "migrating" {
				t.Errorf("wire front reason = %q (queue policy %v)", reason, retried)
			}

			bk.mu.Lock()
			defer bk.mu.Unlock()
			for key := uint64(1); key <= 6; key++ {
				if got := bk.subs[key]; got != tc.subs {
					t.Errorf("key %d submitted %d times, want %d", key, got, tc.subs)
				}
			}
			var met strings.Builder
			r.WriteMetrics(&met)
			if !strings.Contains(met.String(), "ssdkeeper_fleet_proxied_total 6\n") {
				t.Errorf("6 client requests must count 6 proxied, whatever the retries:\n%s", met.String())
			}
		})
	}
}

// TestGateWaitTimeout: under the queue policy a request gated by a
// migration that never finishes must come back as a migrating rejection
// after GateWait — on both client fronts — not block forever.
func TestGateWaitTimeout(t *testing.T) {
	n := startNode(t)
	t.Cleanup(n.stop)
	const gateWait = 150 * time.Millisecond
	r, err := NewRouter(Config{
		Nodes: []string{n.ts.URL}, WireNodes: []string{n.wire},
		GatePolicy: GateQueue, GateWait: gateWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	front := httptest.NewServer(r.Handler())
	defer front.Close()
	_, waddr := startWireListener(t, r.WireBackend())
	wc := wire.NewClient(waddr, 1)
	defer wc.Close()

	gate := make(chan struct{})
	r.publish(func(tab *routeTable) { tab.migrating[0] = gate })

	start := time.Now()
	code, body := postIO(t, http.DefaultClient, front.URL, 0, 0)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "migrating") {
		t.Fatalf("gated /io = %d %q, want 503 migrating", code, body)
	}
	if e := time.Since(start); e < gateWait-10*time.Millisecond {
		t.Errorf("HTTP answered in %v, before the %v gate wait expired", e, gateWait)
	}

	start = time.Now()
	_, _, reason, err := wc.Do(serve.Request{Tenant: 0, Op: trace.Read, Size: 16384}, 5*time.Second)
	if err != nil || reason != "migrating" {
		t.Fatalf("gated wire call = reason %q err %v, want migrating", reason, err)
	}
	if e := time.Since(start); e < gateWait-10*time.Millisecond {
		t.Errorf("wire answered in %v, before the %v gate wait expired", e, gateWait)
	}

	// Release the gate: both fronts flow again.
	r.publish(func(tab *routeTable) { delete(tab.migrating, 0) })
	close(gate)
	if code, body := postIO(t, http.DefaultClient, front.URL, 0, 0); code != http.StatusOK {
		t.Fatalf("ungated /io = %d: %s", code, body)
	}
	if _, _, reason, err := wc.Do(serve.Request{Tenant: 0, Op: trace.Read, Size: 16384}, 5*time.Second); err != nil || reason != "" {
		t.Fatalf("ungated wire call = reason %q err %v", reason, err)
	}
}

// TestWireMigrationUnderLoad is TestMigrationUnderLoad on the wire client
// front: concurrent wire clients hammer one tenant through the router's
// wire listener while the tenant migrates twice, and afterwards
// the client success count must equal the fleet-wide completion count for
// the tenant — nothing lost, nothing duplicated, on persistent pipelined
// connections crossing a drain/handoff/flip.
func TestWireMigrationUnderLoad(t *testing.T) {
	nodes, router, front := startFleet(t, 3, GateQueue)
	const (
		tenant  = 1
		clients = 8
		perEach = 40
	)
	wc := wire.NewClient(front, 4)
	defer wc.Close()

	var ok, rejected, failed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				req := serve.Request{
					Tenant: tenant,
					Op:     trace.Read,
					Offset: (int64(c*perEach+i) % 256) * 16384,
					Size:   16384,
				}
				_, _, reason, err := wc.Do(req, 30*time.Second)
				switch {
				case err != nil:
					failed.Add(1)
					t.Errorf("client %d req %d: %v", c, i, err)
				case reason == "":
					ok.Add(1)
				default:
					rejected.Add(1)
				}
			}
		}(c)
	}

	src := router.Owner(tenant)
	var others []string
	for _, n := range nodes {
		if n.ts.URL != src {
			others = append(others, n.ts.URL)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if err := router.Migrate(tenant, others[0]); err != nil {
		t.Errorf("migrate 1: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := router.Migrate(tenant, others[1]); err != nil {
		t.Errorf("migrate 2: %v", err)
	}
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d wire calls failed outright", failed.Load())
	}
	total := ok.Load() + rejected.Load()
	if total != clients*perEach {
		t.Fatalf("answered %d of %d requests", total, clients*perEach)
	}
	var completed uint64
	for _, n := range nodes {
		completed += n.srv.TenantCompleted(tenant)
	}
	if completed != ok.Load() {
		t.Fatalf("fleet completed %d requests for tenant %d, clients saw %d oks: lost %d / duplicated %d",
			completed, tenant, ok.Load(),
			int64(ok.Load())-int64(completed), int64(completed)-int64(ok.Load()))
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded")
	}
}
