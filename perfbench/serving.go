package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/ocd"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// cycleKind selects the client decision cycle of a serving workload.
type cycleKind int

const (
	// cycleSched is the kube-scheduler extender cycle: filter,
	// prioritize the first eligible servers, place, remove the oldest
	// live VM, and an overclock ask every 4th cycle.
	cycleSched cycleKind = iota
	// cycleAutoscale is the paper's scale-up-then-out loop: overclock,
	// place, remove, cancel the overclock, and a status every 8th cycle.
	cycleAutoscale
)

// serveConfig sizes a serving workload against an in-process ocd.
type serveConfig struct {
	Kind    cycleKind
	Servers int
	// StepsPerSec is the RunScaled rate in control steps per wall second.
	StepsPerSec float64
	// LiveTarget is each client's live-VM ledger size: once reached,
	// every cycle removes the client's oldest VM.
	LiveTarget int
	// PoolVMs is the number of trace VMs the clients draw specs from.
	PoolVMs int
	// SetupReps is how many times a run builds and prefills the daemon;
	// the last one serves, the median is setup_s.
	SetupReps int
	// SampleEvery fully decodes and shape-checks the answers of every
	// n-th cycle (a multiple of 8, so the sample includes the every-4th
	// and every-8th requests).
	SampleEvery int
}

const (
	// prefillFrac places Servers×prefillFrac trace VMs before the
	// window opens.
	prefillFrac = 0.6
	// candidates is how many eligible servers a sched cycle prioritizes.
	candidates = 64
	// sampleMax caps the sampled cycles per client (filter answers are
	// fleet-sized).
	sampleMax = 32
	// subWindows splits the window for windowStats: 2 s each at the
	// benchmark's 20 s, long enough for a p95 with over fifty cycles
	// beyond it.
	subWindows = 10
	// maxDriftSteps bounds how far, in control periods, simulated time
	// may trail the wall clock. RunScaled sleeps until the next step is
	// due, so up to one period of lag is normal; four (1 s of wall time
	// at 4 steps/s) means the loop was starved.
	maxDriftSteps = 4
)

func defaultServeConfig(kind cycleKind) serveConfig {
	return serveConfig{
		Kind:        kind,
		Servers:     10_000,
		StepsPerSec: 4,
		LiveTarget:  32,
		PoolVMs:     4096,
		SetupReps:   3,
		SampleEvery: 64,
	}
}

// spanHeader carries the client's RTT span ID to the handler timer,
// so a handler span is the child of the request that caused it.
const spanHeader = "X-Perfbench-Span"

// handlerTimer is the middleware around ocd's Handler that records
// one handler.<route> span per request (traced runs only).
type handlerTimer struct {
	next http.Handler
	tr   *tracer
}

func (h handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	start := h.tr.now()
	h.next.ServeHTTP(w, r)
	h.tr.record(span{ID: h.tr.newID(), Parent: parent, Name: "handler." + routeName(r.URL.Path), Start: start, End: h.tr.now()})
}

func routeName(path string) string { return strings.TrimPrefix(path, "/v1/") }

// daemonSetup is one built and prefilled daemon.
type daemonSetup struct {
	d        *ocd.Daemon
	reg      *telemetry.Registry
	h        http.Handler
	pool     [][]byte // per-VM spec JSON after the "id" field
	prefill  int      // VMs placed during prefill
	simStepS float64
}

// wireClass is the v1 API spelling of each VM class.
var wireClass = map[vm.Class]string{vm.Regular: "regular", vm.HighPerf: "high-perf", vm.Harvest: "harvest"}

// specTail encodes a VM spec without its ID: `"vcores":…}` — the
// clients prefix {"id":N, to form a wire VMSpec without reflection.
func specTail(v *vm.VM) ([]byte, error) {
	b, err := json.Marshal(api.VMSpec{
		VCores: v.Type.VCores, MemoryGB: v.Type.MemoryGB, Class: wireClass[v.Class],
		AvgUtil: v.AvgUtil, ScalableFraction: v.ScalableFraction,
	})
	if err != nil {
		return nil, err
	}
	return bytes.TrimPrefix(b, []byte(`{"id":0,`)), nil
}

func appendVMBody(dst []byte, id int, tail []byte) []byte {
	dst = append(dst, `{"vm":{"id":`...)
	dst = strconv.AppendInt(dst, int64(id), 10)
	dst = append(dst, ',')
	dst = append(dst, tail...)
	return append(dst, '}')
}

// setupDaemon generates the trace, builds the daemon and prefills it
// through its handler. The daemon sees only the generated VM specs.
func setupDaemon(sc serveConfig, seed uint64, tr *tracer) (*daemonSetup, error) {
	nPrefill := int(float64(sc.Servers) * prefillFrac)
	_, endTrace := tr.begin("setup.trace", 0)
	trace := vm.DefaultTrace
	trace.Seed = seed
	trace.ArrivalRatePerS = 1
	trace.DurationS = 1.2*float64(nPrefill+sc.PoolVMs) + 100
	vms := vm.Generate(trace)
	if len(vms) < nPrefill+sc.PoolVMs {
		return nil, fmt.Errorf("trace has %d VMs, need %d", len(vms), nPrefill+sc.PoolVMs)
	}
	tails := make([][]byte, nPrefill+sc.PoolVMs)
	for i := range tails {
		t, err := specTail(vms[i])
		if err != nil {
			return nil, err
		}
		tails[i] = t
	}
	endTrace()

	_, endNew := tr.begin("setup.sim_new", 0)
	cfg := dcsim.DefaultConfig()
	cfg.Servers = sc.Servers
	cfg.FeederBudgetW = feederWPerServer * float64(sc.Servers)
	cfg.Events = []vm.Event{} // open loop: arrivals come over the API
	cfg.Shards = runtime.GOMAXPROCS(0)
	reg := telemetry.NewRegistry()
	d, err := ocd.New(cfg, ocd.ModeScaled, reg)
	if err != nil {
		return nil, err
	}
	h := d.Handler()
	endNew()

	_, endPrefill := tr.begin("setup.prefill", 0)
	placed := 0
	var body []byte
	for i := 0; i < nPrefill; i++ {
		body = appendVMBody(body[:0], i, tails[i])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/place", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("prefill place %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		if bytes.Contains(rec.Body.Bytes(), []byte(`"placed":true`)) {
			placed++
		}
	}
	endPrefill()
	return &daemonSetup{d: d, reg: reg, h: h, pool: tails[nPrefill:], prefill: placed, simStepS: cfg.StepS}, nil
}

// client is one closed-loop caller with its own connection, reused
// request and response buffers, and its live-VM ledger.
type client struct {
	sc      serveConfig
	n       int // client index
	clients int
	base    string
	hc      *http.Client
	tr      *tracer
	setup   *daemonSetup
	drift   *telemetry.Gauge
	body    []byte
	resp    bytes.Buffer
	cands   []int
	ledger  []int // live VM IDs, oldest first
	nextID  int
	rng     uint64

	// Measurements.
	cycles    []cycleSample
	failures  int
	checks    int
	checkFail int
	ocAsks    int
	ocGrants  int
	places    int
	placed    int
	filterB   int64
	filters   int
	maxDrift  float64
	cycleSpan uint64
	sampling  bool
	samples   []sample
}

// do sends one request and reads the answer into c.resp.
func (c *client) do(ctx context.Context, method, route string, body []byte) error {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+"/v1/"+route, rdr)
	if err != nil {
		return err
	}
	var id uint64
	var start int64
	if c.tr != nil {
		id = c.tr.newID()
		start = c.tr.now()
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.tr != nil {
		c.tr.record(span{ID: id, Parent: c.cycleSpan, Name: "rtt." + route, Start: start, End: c.tr.now()})
	}
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s: status %d: %s", route, resp.StatusCode, bytes.TrimSpace(c.resp.Bytes()))
	}
	return nil
}

// next64 is splitmix64: the autoscale clients' server choice.
func (c *client) next64() uint64 {
	c.rng += 0x9e3779b97f4a7c15
	z := c.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (c *client) check(ok bool, format string, a ...any) {
	c.checks++
	if !ok {
		c.checkFail++
		if c.checkFail <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: client %d check failed: "+format+"\n", append([]any{c.n}, a...)...)
		}
	}
}

// eligibleIndices pulls the first n "index" values of the filter
// answer's eligible array without decoding the (fleet-sized) body.
func eligibleIndices(body []byte, n int, dst []int) []int {
	dst = dst[:0]
	i := bytes.Index(body, []byte(`"eligible":[`))
	if i < 0 {
		return dst
	}
	rest := body[i+len(`"eligible":[`):]
	key := []byte(`"index":`)
	for len(dst) < n {
		j := bytes.Index(rest, key)
		if end := bytes.IndexByte(rest, ']'); j < 0 || (end >= 0 && end < j) {
			break
		}
		rest = rest[j+len(key):]
		v, m := leadingInt(rest)
		if m == 0 {
			break
		}
		dst = append(dst, v)
		rest = rest[m:]
	}
	return dst
}

// leadingInt parses the non-negative integer at the start of b and
// returns it with the number of bytes consumed.
func leadingInt(b []byte) (int, int) {
	v, m := 0, 0
	for m < len(b) && b[m] >= '0' && b[m] <= '9' {
		v = v*10 + int(b[m]-'0')
		m++
	}
	return v, m
}

// placeOutcome reads a place answer: whether it placed, and where.
func placeOutcome(body []byte) (placed bool, server int) {
	if !bytes.Contains(body, []byte(`"placed":true`)) {
		return false, -1
	}
	i := bytes.Index(body, []byte(`"index":`))
	if i < 0 {
		return true, -1
	}
	v, m := leadingInt(body[i+len(`"index":`):])
	if m == 0 {
		return true, -1
	}
	return true, v
}

// cycle runs one decision cycle; an error fails the whole cycle.
func (c *client) cycle(ctx context.Context, k int) error {
	tail := c.setup.pool[(c.n+k*c.clients)%len(c.setup.pool)]
	id := c.nextID
	c.nextID++
	c.sampling = c.sc.SampleEvery > 0 && k%c.sc.SampleEvery == c.sc.SampleEvery-1 && len(c.samples) < sampleMax
	switch c.sc.Kind {
	case cycleSched:
		c.body = appendVMBody(c.body[:0], id, tail)
		if err := c.do(ctx, http.MethodPost, "filter", c.body); err != nil {
			return err
		}
		c.filters++
		c.filterB += int64(c.resp.Len())
		c.cands = eligibleIndices(c.resp.Bytes(), candidates, c.cands)
		c.keep("filter", false, -1)
		if len(c.cands) > 0 {
			c.body = c.body[:len(c.body)-1] // reopen the object after the VM
			c.body = append(c.body, `,"servers":[`...)
			for i, s := range c.cands {
				if i > 0 {
					c.body = append(c.body, ',')
				}
				c.body = strconv.AppendInt(c.body, int64(s), 10)
			}
			c.body = append(c.body, "]}"...)
			if err := c.do(ctx, http.MethodPost, "prioritize", c.body); err != nil {
				return err
			}
			c.keep("prioritize", false, -1)
		}
		server, err := c.place(ctx, id, tail)
		if err != nil {
			return err
		}
		if err := c.trim(ctx); err != nil {
			return err
		}
		if k%4 == 3 {
			if server < 0 && len(c.cands) > 0 {
				server = c.cands[0]
			}
			if server >= 0 {
				if err := c.overclock(ctx, server, false); err != nil {
					return err
				}
			}
		}
	case cycleAutoscale:
		server := int(c.next64() % uint64(c.sc.Servers))
		if err := c.overclock(ctx, server, false); err != nil {
			return err
		}
		if _, err := c.place(ctx, id, tail); err != nil {
			return err
		}
		if err := c.trim(ctx); err != nil {
			return err
		}
		if err := c.overclock(ctx, server, true); err != nil {
			return err
		}
		if k%8 == 7 {
			if err := c.do(ctx, http.MethodGet, "status", nil); err != nil {
				return err
			}
			c.keep("status", false, -1)
		}
	}
	if v := c.drift.Value(); v > c.maxDrift {
		c.maxDrift = v
	}
	return nil
}

func (c *client) place(ctx context.Context, id int, tail []byte) (int, error) {
	c.body = appendVMBody(c.body[:0], id, tail)
	if err := c.do(ctx, http.MethodPost, "place", c.body); err != nil {
		return -1, err
	}
	c.places++
	placed, server := placeOutcome(c.resp.Bytes())
	c.keep("place", placed, server)
	if placed {
		c.placed++
		c.ledger = append(c.ledger, id)
	}
	return server, nil
}

// trim removes the client's oldest live VM once the ledger is full,
// holding the live count steady.
func (c *client) trim(ctx context.Context) error {
	if len(c.ledger) <= c.sc.LiveTarget {
		return nil
	}
	old := c.ledger[0]
	c.body = append(c.body[:0], `{"id":`...)
	c.body = strconv.AppendInt(c.body, int64(old), 10)
	c.body = append(c.body, '}')
	if err := c.do(ctx, http.MethodPost, "remove", c.body); err != nil {
		return err
	}
	if !bytes.Contains(c.resp.Bytes(), []byte(`"removed":true`)) {
		return fmt.Errorf("remove %d: not removed: %s", old, c.resp.Bytes())
	}
	c.ledger = c.ledger[1:]
	return nil
}

func (c *client) overclock(ctx context.Context, server int, cancel bool) error {
	c.body = append(c.body[:0], `{"server":`...)
	c.body = strconv.AppendInt(c.body, int64(server), 10)
	if cancel {
		c.body = append(c.body, `,"cancel":true`...)
	}
	c.body = append(c.body, '}')
	if err := c.do(ctx, http.MethodPost, "overclock", c.body); err != nil {
		return err
	}
	if !cancel {
		c.ocAsks++
		if bytes.Contains(c.resp.Bytes(), []byte(`"granted":true`)) {
			c.ocGrants++
		}
	}
	return nil
}

// sample is a copy of one answer kept for checking after the window,
// with what the client read from it on the fast path.
type sample struct {
	route  string
	body   []byte
	cands  []int // filter and prioritize: the extracted candidates
	placed bool  // place: the fast-path outcome
	server int
}

// keep copies the current answer when this cycle is sampled. The full
// decode and the checks run after the window, off the timed path.
func (c *client) keep(route string, placed bool, server int) {
	if !c.sampling {
		return
	}
	c.samples = append(c.samples, sample{
		route: route, body: bytes.Clone(c.resp.Bytes()), cands: append([]int(nil), c.cands...),
		placed: placed, server: server,
	})
}

// verify fully decodes every kept answer and checks its shape and the
// fast-path reading of it.
func (c *client) verify() {
	for _, s := range c.samples {
		var ok bool
		var err error
		switch s.route {
		case "filter":
			var fr api.FilterResponse
			err = json.Unmarshal(s.body, &fr)
			ok = err == nil && fr.Vers == api.Version && len(fr.Eligible)+len(fr.Failed) == c.sc.Servers &&
				len(s.cands) == min(len(fr.Eligible), candidates)
			for i, e := range fr.Eligible {
				if e.Index < 0 || e.Index >= c.sc.Servers || (i > 0 && e.Index <= fr.Eligible[i-1].Index) {
					ok = false
				}
			}
			for i := 0; ok && i < len(s.cands); i++ {
				ok = fr.Eligible[i].Index == s.cands[i]
			}
		case "prioritize":
			var pr api.PrioritizeResponse
			err = json.Unmarshal(s.body, &pr)
			ok = err == nil && pr.Vers == api.Version && len(pr.Scores) == len(s.cands)
			seen := map[int]bool{}
			for i, sc := range pr.Scores {
				seen[sc.Server.Index] = true
				if sc.Score < 0 || sc.Score > 100 || (i > 0 && sc.Score > pr.Scores[i-1].Score) {
					ok = false
				}
			}
			for _, i := range s.cands {
				ok = ok && seen[i]
			}
		case "place":
			var pr api.PlaceResponse
			err = json.Unmarshal(s.body, &pr)
			ok = err == nil && pr.Vers == api.Version && pr.Placed == s.placed &&
				(!pr.Placed || (pr.Server != nil && pr.Server.Index == s.server && s.server < c.sc.Servers))
		case "status":
			var st api.FleetStatus
			err = json.Unmarshal(s.body, &st)
			ok = err == nil && st.Vers == api.Version && st.Servers == c.sc.Servers && st.Mode == ocd.ModeScaled &&
				st.PlacedVMs >= 0 && st.Overclocked >= 0 && st.RowPowerW > 0
		}
		c.check(ok, "%s answer shape (decode error %v): %.200s", s.route, err, s.body)
	}
}

func runServing(sc serveConfig, p params, tr *tracer) (*result, error) {
	res := newResult()
	var setups []float64
	var ds *daemonSetup
	for i := 0; i < sc.SetupReps; i++ {
		t0 := time.Now()
		var err error
		if ds, err = setupDaemon(sc, p.seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	h := ds.h
	if tr != nil {
		h = handlerTimer{next: ds.h, tr: tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	status := func() (api.FleetStatus, error) {
		rec := httptest.NewRecorder()
		ds.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
		var st api.FleetStatus
		if rec.Code != http.StatusOK {
			return st, fmt.Errorf("status: %d", rec.Code)
		}
		return st, json.Unmarshal(rec.Body.Bytes(), &st)
	}
	st0, err := status()
	if err != nil {
		srv.Close()
		<-served
		return nil, err
	}

	scale := sc.StepsPerSec * ds.simStepS
	ctx, stopScaled := context.WithCancel(context.Background())
	scaledDone := make(chan struct{})
	wallStart := time.Now()
	go func() {
		defer close(scaledDone)
		ds.d.RunScaled(ctx, scale)
	}()

	clients := make([]*client, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	clientStart := time.Now()
	deadline := clientStart.Add(p.window)
	for i := range clients {
		c := &client{
			sc: sc, n: i, clients: len(clients), base: base, tr: tr, setup: ds,
			drift:  ds.reg.Scope("ocd").Gauge("sim_time_drift_s"),
			nextID: 1<<30 + i<<24,
			rng:    p.seed*0x9e3779b97f4a7c15 + uint64(i),
			hc: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
			cycles: make([]cycleSample, 0, 1<<16),
		}
		clients[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				var endCycle func()
				c.cycleSpan, endCycle = tr.begin("cycle", 0)
				t0 := time.Now()
				err := c.cycle(context.Background(), k)
				endCycle()
				if err != nil {
					c.failures++
					if c.failures <= 5 {
						fmt.Fprintf(os.Stderr, "perfbench: client %d cycle %d: %v\n", c.n, k, err)
					}
					continue
				}
				c.cycles = append(c.cycles, cycleSample{
					at: time.Since(clientStart).Seconds(),
					us: float64(time.Since(t0)) / float64(time.Microsecond),
				})
			}
		}()
	}
	wg.Wait()
	window := time.Since(clientStart)
	stopScaled()
	<-scaledDone
	wall := time.Since(wallStart)
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}

	st1, err := status()
	if err != nil {
		return nil, err
	}
	var lat []cycleSample
	live, asks, grants, places, placed, filters, checks := 0, 0, 0, 0, 0, 0, 0
	var filterB int64
	maxDrift := 0.0
	for _, c := range clients {
		c.verify()
		lat = append(lat, c.cycles...)
		res.attempted += len(c.cycles) + c.failures + c.checks
		res.failed += c.failures + c.checkFail
		if c.checkFail > 0 {
			res.correct = false
		}
		live += len(c.ledger)
		checks += c.checks
		asks += c.ocAsks
		grants += c.ocGrants
		places += c.places
		placed += c.placed
		filters += c.filters
		filterB += c.filterB
		maxDrift = max(maxDrift, c.maxDrift)
	}
	res.check(st1.PlacedVMs == ds.prefill+live, "final placed_vms %d, want prefill %d + live %d", st1.PlacedVMs, ds.prefill, live)
	steps := (st1.SimTimeS - st0.SimTimeS) / ds.simStepS
	lag := scale*wall.Seconds() - (st1.SimTimeS - st0.SimTimeS)
	maxDrift = max(maxDrift, lag)
	res.check(maxDrift <= maxDriftSteps*ds.simStepS,
		"control loop drifted %.0f s of simulated time, bound %.0f s", maxDrift, maxDriftSteps*ds.simStepS)
	res.meta["cycles"] = len(lat)
	res.meta["shape_checks"] = checks
	res.meta["ctl_steps"] = steps
	res.meta["final_status"] = st1

	ws, err := windowStats(lat, window.Seconds(), subWindows)
	if err != nil {
		return nil, err
	}
	res.ops = float64(len(lat))
	res.e2e["wall_ms"] = ws.p50 / 1000
	// The tail is p95, not p99: on the reference host a sub-window's
	// p99 is set by the host's CPU stalls, and its spread over runs
	// exceeded any bound the benchmark may set. The per-route p99s are
	// per-layer metrics.
	res.e2e["tail_ms"] = ws.p95 / 1000
	res.e2e["rate_per_s"] = ws.rate

	if tr != nil {
		ix := indexSpans(tr.snapshot())
		var transport []float64
		for _, r := range servedRoutes {
			hs := summarize(ix.durations("handler."+r, false, time.Microsecond))
			rs := summarize(ix.durations("rtt."+r, false, time.Microsecond))
			res.layers[r+".handler_p50_us"] = hs.P50
			res.layers[r+".handler_p99_us"] = hs.P99
			res.layers[r+".rtt_p50_us"] = rs.P50
			res.layers[r+".rtt_p99_us"] = rs.P99
			transport = append(transport, ix.durations("rtt."+r, true, time.Microsecond)...)
		}
		res.layers["transport_p50_us"] = summarize(transport).P50
		if filters > 0 {
			res.layers["filter.resp_kb"] = float64(filterB) / float64(filters) / 1024
		}
		res.layers["ctl.steps"] = steps
		res.layers["ctl.drift_s"] = maxDrift
		if asks > 0 {
			res.layers["overclock.grant_ratio"] = float64(grants) / float64(asks)
		}
		if places > 0 {
			res.layers["place.placed_ratio"] = float64(placed) / float64(places)
		}
		for _, n := range []string{"setup.trace", "setup.sim_new", "setup.prefill"} {
			res.layers[n+"_s"] = median(ix.durations(n, false, time.Second))
		}
	}
	return res, nil
}

// cycleSample is one completed cycle: when it ended, in seconds since
// the window opened, and how long it took, in µs.
type cycleSample struct{ at, us float64 }

// windowMedians are a run's cycle statistics: p50, p95 (µs) and
// completions per second, each the median over equal sub-windows.
type windowMedians struct{ p50, p95, rate float64 }

// windowStats splits the window into k equal sub-windows by completion
// time and reports the median of each sub-window's statistic. The host
// this runs on stalls for stretches of a second or two; a stall inside
// one sub-window moves that sub-window's figures, not the medians.
func windowStats(samples []cycleSample, window float64, k int) (windowMedians, error) {
	buckets := make([][]float64, k)
	for _, s := range samples {
		b := min(int(s.at/window*float64(k)), k-1)
		buckets[b] = append(buckets[b], s.us)
	}
	var p50s, p95s, rates []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sum := summarize(b)
		p50s = append(p50s, sum.P50)
		p95s = append(p95s, sum.P95)
		rates = append(rates, float64(len(b))/(window/float64(k)))
	}
	if len(p50s) == 0 {
		return windowMedians{}, errors.New("no cycle completed")
	}
	return windowMedians{p50: median(p50s), p95: median(p95s), rate: median(rates)}, nil
}
