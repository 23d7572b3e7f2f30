package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssdkeeper/internal/nand"
	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/ssd"
	"ssdkeeper/internal/wire"
)

// testNode is one in-process fleet member: a serve node plus its HTTP
// (control plane) and wire (data plane) bindings, exactly what a real
// deployment runs per process.
type testNode struct {
	srv  *serve.Server
	ts   *httptest.Server
	wire string // wire listener address
}

// startWireListener serves the wire protocol for a backend on an ephemeral
// port and returns the dial address.
func startWireListener(t *testing.T, b wire.Backend) (*wire.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.NewServer(b)
	go ws.Serve(ln)
	t.Cleanup(func() { ws.Close() })
	return ws, ln.Addr().String()
}

func startNode(t *testing.T) *testNode {
	t.Helper()
	s, err := serve.New(serve.Config{
		Device:  nand.EvalConfig(),
		Options: ssd.DefaultOptions(),
		Accel:   50, // completions land within a pacer tick
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	n := &testNode{srv: s, ts: httptest.NewServer(s.Handler(10 * time.Second))}
	_, n.wire = startWireListener(t, s.Node)
	return n
}

func (n *testNode) stop() {
	n.srv.Drain()
	n.ts.Close()
}

// startFleet boots nodes and a router over them, plus the router's own
// wire listener (the returned address) beside its HTTP handler.
func startFleet(t *testing.T, nodes int, gatePolicy string) ([]*testNode, *Router, string) {
	t.Helper()
	members := make([]*testNode, nodes)
	addrs := make([]string, nodes)
	waddrs := make([]string, nodes)
	for i := range members {
		members[i] = startNode(t)
		addrs[i], waddrs[i] = members[i].ts.URL, members[i].wire
		t.Cleanup(members[i].stop)
	}
	r, err := NewRouter(Config{
		Nodes: addrs, WireNodes: waddrs,
		GatePolicy: gatePolicy, GateWait: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	_, front := startWireListener(t, r.WireBackend())
	return members, r, front
}

func postIO(t *testing.T, client *http.Client, base string, tenant int, pageNo int64) (int, string) {
	t.Helper()
	body := fmt.Sprintf(`{"tenant":%d,"op":"read","offset":%d,"size":16384}`, tenant, pageNo*16384)
	resp, err := client.Post(base+"/io", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /io: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(data)
}

// TestRouterProxiesIO: requests reach the owner node and answer 200; the
// batch path splits by owner and reassembles line order.
func TestRouterProxiesIO(t *testing.T) {
	_, router, _ := startFleet(t, 2, GateQueue)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	for tenant := 0; tenant < 4; tenant++ {
		code, body := postIO(t, http.DefaultClient, front.URL, tenant, int64(tenant))
		if code != http.StatusOK {
			t.Fatalf("tenant %d: /io = %d: %s", tenant, code, body)
		}
		var jr struct {
			LatencyNS int64 `json:"latency_ns"`
		}
		if err := json.Unmarshal([]byte(body), &jr); err != nil || jr.LatencyNS <= 0 {
			t.Fatalf("tenant %d: bad response %q", tenant, body)
		}
	}

	// A batch mixing all tenants — owners differ per line, order must hold.
	batch := "0 R 0 16384\n1 W 16384 16384\nbogus\n2 R 32768 16384\n3 W 49152 16384\n"
	resp, err := http.Post(front.URL+"/io/batch", "text/plain", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 5 {
		t.Fatalf("batch answered %d lines, want 5: %q", len(lines), data)
	}
	for i, ln := range lines {
		if i == 2 {
			if !strings.HasPrefix(ln, "rej invalid") {
				t.Errorf("line %d = %q, want rej invalid", i, ln)
			}
			continue
		}
		if !strings.HasPrefix(ln, "ok ") {
			t.Errorf("line %d = %q, want ok", i, ln)
		}
	}
}

// TestRouterStatusAndMetrics: the control surface reflects placement and
// migrations.
func TestRouterStatusAndMetrics(t *testing.T) {
	nodes, router, _ := startFleet(t, 2, GateQueue)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Nodes       []string          `json:"nodes"`
		WireNodes   map[string]string `json:"wire_nodes"`
		RingVersion uint64            `json:"ring_version"`
		Tenants     map[string]string `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Nodes) != 2 || len(st.Tenants) != 4 {
		t.Fatalf("status: %+v", st)
	}
	for _, n := range nodes {
		if st.WireNodes[n.ts.URL] != n.wire {
			t.Errorf("status wire_nodes[%s] = %q, want %q", n.ts.URL, st.WireNodes[n.ts.URL], n.wire)
		}
	}

	// Migrate tenant 0 to whichever node does not own it, via the admin
	// endpoint, then confirm the table flipped and metrics counted it.
	owner := router.Owner(0)
	target := nodes[0].ts.URL
	if target == owner {
		target = nodes[1].ts.URL
	}
	mresp, err := http.Post(fmt.Sprintf("%s/fleet/migrate?tenant=0&to=%s", front.URL, target), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/migrate = %d: %s", mresp.StatusCode, mbody)
	}
	if got := router.Owner(0); got != target {
		t.Errorf("owner after migrate = %q, want %q", got, target)
	}
	var buf strings.Builder
	router.WriteMetrics(&buf)
	for _, want := range []string{
		"ssdkeeper_fleet_nodes 2",
		`ssdkeeper_migrations_total{outcome="completed"} 1`,
		`ssdkeeper_migrations_total{outcome="aborted"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("fleet metrics missing %q", want)
		}
	}
	// Post-migration traffic flows to the new owner.
	if code, body := postIO(t, http.DefaultClient, front.URL, 0, 1); code != http.StatusOK {
		t.Errorf("post-migration /io = %d: %s", code, body)
	}
}

// TestMigrationUnderLoad is the fleet's zero-loss/zero-duplication
// guarantee under -race: clients hammer one tenant through the router's
// /io and /io/batch while that tenant is migrated between nodes (twice —
// there and back). Every request and batch line must be answered — the
// queue gate hides the handoff — and afterwards the client success count
// must equal the sum of client completions across all nodes: nothing lost,
// nothing double-counted.
func TestMigrationUnderLoad(t *testing.T) {
	nodes, router, _ := startFleet(t, 3, GateQueue)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	const (
		tenant   = 1
		clients  = 8
		perEach  = 40
		batches  = 20
		perBatch = 8
	)
	var ok, rejected, failed atomic.Uint64
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 20 * time.Second}
	wg.Add(1)
	go func() { // one batch client beside the /io clients
		defer wg.Done()
		for b := 0; b < batches; b++ {
			var body strings.Builder
			for l := 0; l < perBatch; l++ {
				fmt.Fprintf(&body, "%d R %d 16384\n", tenant, int64((b*perBatch+l)%256)*16384)
			}
			resp, err := client.Post(front.URL+"/io/batch", "text/plain", strings.NewReader(body.String()))
			if err != nil {
				failed.Add(perBatch)
				t.Errorf("batch %d: %v", b, err)
				continue
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for i, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
				switch {
				case strings.HasPrefix(ln, "ok "):
					ok.Add(1)
				case ln == "rej migrating" || ln == "rej queue_full":
					rejected.Add(1)
				default:
					failed.Add(1)
					t.Errorf("batch %d line %d: %q", b, i, ln)
				}
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				code, body := postIO(t, client, front.URL, tenant, int64(c*perEach+i)%256)
				switch {
				case code == http.StatusOK:
					ok.Add(1)
				case code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests:
					rejected.Add(1)
				default:
					failed.Add(1)
					t.Errorf("client %d req %d: status %d: %s", c, i, code, body)
				}
			}
		}(c)
	}

	// Two live migrations while the load runs: owner → other node → back.
	src := router.Owner(tenant)
	var others []string
	for _, n := range nodes {
		if n.ts.URL != src {
			others = append(others, n.ts.URL)
		}
	}
	time.Sleep(50 * time.Millisecond) // let load build up
	if err := router.Migrate(tenant, others[0]); err != nil {
		t.Errorf("migrate 1: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := router.Migrate(tenant, others[1]); err != nil {
		t.Errorf("migrate 2: %v", err)
	}
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed outright", failed.Load())
	}
	var completed uint64
	for _, n := range nodes {
		completed += n.srv.TenantCompleted(tenant)
	}
	total := ok.Load() + rejected.Load()
	if total != clients*perEach+batches*perBatch {
		t.Fatalf("answered %d of %d requests", total, clients*perEach+batches*perBatch)
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

// TestGateRejectPolicy: with GateReject the router answers 503+Retry-After
// during a handoff instead of queueing.
func TestGateRejectPolicy(t *testing.T) {
	_, router, _ := startFleet(t, 2, GateReject)
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	// Hold the gate open manually by starting a migration against a source
	// that is slow to drain — simpler: gate via the internal table as the
	// migration path does, then assert the handler's behavior.
	gate := make(chan struct{})
	router.publish(func(tab *routeTable) { tab.migrating[0] = gate })
	code, _ := postIO(t, http.DefaultClient, front.URL, 0, 0)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("gated tenant /io = %d, want 503", code)
	}
	router.publish(func(tab *routeTable) { delete(tab.migrating, 0) })
	close(gate)
	if code, body := postIO(t, http.DefaultClient, front.URL, 0, 0); code != http.StatusOK {
		t.Fatalf("ungated tenant /io = %d: %s", code, body)
	}
}

// TestMembershipProbe: the prober reads readiness and per-tenant load from
// a live node's real endpoints.
func TestMembershipProbe(t *testing.T) {
	n := startNode(t)
	defer n.stop()

	// Complete one request so the metrics have a nonzero completion.
	code, body := postIO(t, http.DefaultClient, n.ts.URL, 2, 0)
	if code != http.StatusOK {
		t.Fatalf("/io = %d: %s", code, body)
	}

	m := NewMembership([]string{n.ts.URL}, 4, 5*time.Second)
	m.Poll()
	snap := m.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d nodes", len(snap))
	}
	st := snap[0]
	if !st.Ready || st.Err != nil {
		t.Fatalf("node status %+v", st)
	}
	if st.CompletedByTenant[2] != 1 {
		t.Errorf("completed[2] = %d, want 1 (%v)", st.CompletedByTenant[2], st.CompletedByTenant)
	}
}

func TestPromSamples(t *testing.T) {
	text := strings.Join([]string{
		`# HELP ssdkeeper_completed_total x`,
		`# TYPE ssdkeeper_completed_total counter`,
		`ssdkeeper_completed_total{tenant="0",op="read"} 3`,
		`ssdkeeper_completed_total{tenant="0",op="write"} 2`,
		`ssdkeeper_completed_total{tenant="1",op="read"} 7`,
		`ssdkeeper_completed_totals_bogus{tenant="9"} 99`,
		`ssdkeeper_latency_seconds{tenant="1",op="read",quantile="0.99"} 0.004`,
		`ssdkeeper_latency_seconds_count{tenant="1",op="read"} 7`,
		`ssdkeeper_up 1`,
	}, "\n")
	got := promSamples(text, "ssdkeeper_completed_total")
	if len(got) != 3 {
		t.Fatalf("parsed %d samples, want 3: %+v", len(got), got)
	}
	var t0 float64
	for _, s := range got {
		if s.labels["tenant"] == "0" {
			t0 += s.value
		}
	}
	if t0 != 5 {
		t.Errorf("tenant 0 total = %v, want 5", t0)
	}
	if up := promSamples(text, "ssdkeeper_up"); len(up) != 1 || up[0].value != 1 {
		t.Errorf("ssdkeeper_up parse: %+v", up)
	}
	lat := promSamples(text, "ssdkeeper_latency_seconds")
	if len(lat) != 1 || lat[0].labels["quantile"] != "0.99" {
		t.Errorf("latency parse picked up suffix series: %+v", lat)
	}
}
