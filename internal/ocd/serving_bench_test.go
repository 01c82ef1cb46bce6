package ocd

// Serving-path benchmarks. The per-endpoint benchmarks drive the
// snapshot handlers directly (no mux, no network) against a
// 1000-server fleet so the number measured is the daemon's own work;
// BenchmarkServingFilter10k repeats the filter at the 10k-server scale
// of the repository benchmark's scheduler workload. The read plane's
// 0 allocs/op contract is enforced by TestReadPlaneZeroAllocs.
// BenchmarkServingMixedReadWhileStepping is the
// headline A/B: parallel readers against a stepper that holds the
// write lock, once through lockedHandler (the old serving path) and
// once with snapshot reads.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// benchRW is an allocation-free ResponseWriter: one preallocated
// header map, discarding writes.
type benchRW struct {
	hdr  http.Header
	code int
	n    int
}

func newBenchRW() *benchRW                     { return &benchRW{hdr: make(http.Header, 4)} }
func (w *benchRW) Header() http.Header         { return w.hdr }
func (w *benchRW) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *benchRW) WriteHeader(c int)           { w.code = c }

// benchBody is a resettable request body over a fixed payload.
type benchBody struct{ r bytes.Reader }

func (b *benchBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *benchBody) Close() error               { return nil }

// benchDaemon builds a fleet and packs it ~60% full so filter answers
// carry both eligible and failed entries — the realistic, worst-case
// response shape. The per-endpoint benchmarks use 1000 servers (the
// 0 allocs/op gate size); the mixed benchmark scales up to fleet size,
// where the O(fleet) cost of locked reads is the story.
func benchDaemon(b testing.TB, servers int) *Daemon {
	b.Helper()
	cfg := dcsim.DefaultConfig()
	cfg.Servers = servers
	cfg.Events = []vm.Event{}
	d, err := New(cfg, ModeStepped, telemetry.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	h := d.Handler()
	for i := 0; i < servers*3/5; i++ {
		body := `{"vm":{"id":` + strconv.Itoa(i) + `,"vcores":8,"memory_gb":32,"avg_util":0.6}}`
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader([]byte(body))))
		if rec.Code != http.StatusOK {
			b.Fatalf("prefill place %d: HTTP %d %s", i, rec.Code, rec.Body.String())
		}
	}
	return d
}

var (
	benchFilterBody     = []byte(`{"vm":{"id":1,"vcores":16,"memory_gb":64,"avg_util":0.9}}`)
	benchPrioritizeBody = func() []byte {
		var buf bytes.Buffer
		buf.WriteString(`{"vm":{"id":1,"vcores":8,"memory_gb":32,"avg_util":0.5},"servers":[`)
		for i := 0; i < 64; i++ {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.Itoa(i))
		}
		buf.WriteString(`]}`)
		return buf.Bytes()
	}()
	benchStepBody = []byte(`{"steps":10}`)
)

// endpoint is one snapshot read handler with a fixed request, called
// directly with the request body and writer recycled on every call.
type endpoint struct {
	d    *Daemon
	fn   func(*Daemon, http.ResponseWriter, *http.Request)
	req  *http.Request
	body *benchBody
	data []byte
	w    *benchRW
}

func newEndpoint(d *Daemon, method, path string, payload []byte, fn func(*Daemon, http.ResponseWriter, *http.Request)) *endpoint {
	e := &endpoint{d: d, fn: fn, req: httptest.NewRequest(method, path, nil), data: payload, w: newBenchRW()}
	if payload != nil {
		e.body = &benchBody{}
		e.req.Body = e.body
	}
	return e
}

// serve makes one call and returns the HTTP status it wrote.
func (e *endpoint) serve() int {
	if e.body != nil {
		e.body.r.Reset(e.data)
	}
	e.w.code = 0
	e.fn(e.d, e.w, e.req)
	if e.w.code == 0 {
		return http.StatusOK
	}
	return e.w.code
}

// benchServe measures one snapshot endpoint over a fleet of the given
// size, reporting the response size alongside the time.
func benchServe(b *testing.B, servers int, method, path string, payload []byte, fn func(*Daemon, http.ResponseWriter, *http.Request)) {
	e := newEndpoint(benchDaemon(b, servers), method, path, payload, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := e.serve(); code != http.StatusOK {
			b.Fatalf("%s: HTTP %d", path, code)
		}
	}
	b.ReportMetric(float64(e.w.n)/float64(b.N)/1024, "KiB/op")
}

func BenchmarkServingFilter(b *testing.B) {
	benchServe(b, 1000, http.MethodPost, "/v1/filter", benchFilterBody, (*Daemon).serveFilter)
}

func BenchmarkServingFilter10k(b *testing.B) {
	benchServe(b, 10000, http.MethodPost, "/v1/filter", benchFilterBody, (*Daemon).serveFilter)
}

func BenchmarkServingPrioritize(b *testing.B) {
	benchServe(b, 1000, http.MethodPost, "/v1/prioritize", benchPrioritizeBody, (*Daemon).servePrioritize)
}

func BenchmarkServingStatus(b *testing.B) {
	benchServe(b, 1000, http.MethodGet, "/v1/status", nil, (*Daemon).serveStatus)
}

func BenchmarkServingMetrics(b *testing.B) {
	benchServe(b, 1000, http.MethodGet, "/metrics", nil, (*Daemon).serveMetrics)
}

// BenchmarkServingMixedReadWhileStepping measures read throughput
// while a background stepper drives paced /v1/step batches — the
// contended regime the snapshot split exists for. The stepper mimics
// the scaled-mode control loop: a burst of steps, then an idle gap.
// Each op is one read served through the full Handler, in the
// poll-dominant mix a monitored fleet sees: status polls and
// Prometheus scrapes outnumbering placement-path queries (one filter
// and one prioritize per 256 reads — placements are events, polls are
// a cadence). Run both arms interleaved (-count=N) and compare
// medians.
func BenchmarkServingMixedReadWhileStepping(b *testing.B) {
	b.Run("locked", func(b *testing.B) { benchMixed(b, true) })
	b.Run("snapshot", func(b *testing.B) { benchMixed(b, false) })
}

func benchMixed(b *testing.B, locked bool) {
	d := benchDaemon(b, 4000)
	h := d.Handler()
	if locked {
		h = lockedHandler(d)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/v1/step", nil)
		body := &benchBody{}
		req.Body = body
		w := newBenchRW()
		for {
			select {
			case <-stop:
				return
			default:
			}
			body.r.Reset(benchStepBody)
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != 0 && w.code != http.StatusOK {
				panic("step batch failed in benchmark")
			}
			time.Sleep(4 * time.Millisecond)
		}
	}()

	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		freq := httptest.NewRequest(http.MethodPost, "/v1/filter", nil)
		fbody := &benchBody{}
		freq.Body = fbody
		preq := httptest.NewRequest(http.MethodPost, "/v1/prioritize", nil)
		pbody := &benchBody{}
		preq.Body = pbody
		sreq := httptest.NewRequest(http.MethodGet, "/v1/status", nil)
		mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
		w := newBenchRW()
		i := 0
		for pb.Next() {
			w.code = 0
			switch {
			case i&255 == 0:
				fbody.r.Reset(benchFilterBody)
				h.ServeHTTP(w, freq)
			case i&255 == 128:
				pbody.r.Reset(benchPrioritizeBody)
				h.ServeHTTP(w, preq)
			case i&3 == 1:
				h.ServeHTTP(w, mreq)
			default:
				h.ServeHTTP(w, sreq)
			}
			if w.code != 0 && w.code != http.StatusOK {
				b.Fatalf("read failed: HTTP %d", w.code)
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
}
