package fleet

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"ssdkeeper/internal/serve"
	"ssdkeeper/internal/wire"
)

// benchBackend completes every wire request inline: the benchmark measures
// transport and proxy cost, not device simulation.
type benchBackend struct{}

func (benchBackend) SubmitTo(req serve.Request, c serve.Completion) error {
	c.Complete(serve.Response{Latency: 1000, At: 77}, nil)
	return nil
}

// BenchmarkProxyTransport measures the router's /io proxy path end to end
// over a real socket: HTTP handler, JSON decode, forward, a pipelined wire
// frame to a stub node that answers instantly, and the rendered reply.
// Most of the allocations it reports are the harness's own
// httptest.NewRequest/NewRecorder; bench_gate.sh pins the allocs/op count
// exactly, so any allocation the proxy path gains fails the gate, and
// bounds ns/op against scripts/bench_baseline.json.
func BenchmarkProxyTransport(b *testing.B) {
	body := []byte(`{"tenant":1,"op":"read","offset":4096,"size":4096}`)

	b.Run("wire", func(b *testing.B) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ws := wire.NewServer(benchBackend{})
		go ws.Serve(ln)
		defer ws.Close()
		// The HTTP base URL must exist for the ring and control plane, but
		// no data-plane request touches it.
		up := httptest.NewServer(http.NewServeMux())
		defer up.Close()
		r, err := NewRouter(Config{Nodes: []string{up.URL}, WireNodes: []string{ln.Addr().String()}})
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		h := r.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				req := httptest.NewRequest(http.MethodPost, "/io", bytes.NewReader(body))
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusOK {
					b.Errorf("status %d: %s", w.Code, w.Body.String())
					return
				}
			}
		})
	})
}
