// Command ocdbench is a closed-loop load generator for the ocd
// daemon. Each worker issues one request at a time from a weighted
// endpoint mix — read endpoints and the write plane's place/remove/
// overclock — and records the round-trip latency in a per-worker
// stats.Digest, so the report's p50/p99/p999 are exact order
// statistics, not histogram-bucket approximations. With no -addr it
// self-hosts an in-process daemon on a loopback listener — fleet size
// and a paced background stepper are then configurable, so one binary
// measures the serving path end to end (HTTP stack included) without a
// deployment.
//
// -mix takes either explicit endpoint=weight pairs or a preset:
// "read" (the status-poll-dominant default), "mixed" (reads with a
// placement churn minority), or "write" (place/remove/overclock
// heavy — the mix that stresses snapshot publication).
//
//	ocdbench -servers 2000 -workers 4 -duration 10s -mix write
//	ocdbench -addr http://127.0.0.1:8080 -duration 30s -json
//
// Exit codes follow octl's convention: 0 on success, 1 on a runtime
// error, 2 on a usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/ocd"
	"immersionoc/internal/stats"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// loadCfg is one benchmark run's shape, filled from flags (or directly
// by the BenchmarkOcdbench harness).
type loadCfg struct {
	addr       string        // target daemon; "" self-hosts
	servers    int           // self-host fleet size
	workers    int           // concurrent closed-loop workers
	duration   time.Duration // measurement window
	mix        string        // weighted endpoint mix or preset name
	stepBatch  int           // self-host: steps per control-loop pass
	stepPeriod time.Duration // self-host: idle gap between passes; 0 disables stepping
}

// endpointStats accumulates one endpoint's latencies across workers.
type endpointStats struct {
	name     string
	digest   *stats.Digest
	requests int
	errors   int
}

type endpointReport struct {
	Endpoint string  `json:"endpoint"`
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	RPS      float64 `json:"rps"`
	MeanUs   float64 `json:"mean_us"`
	P50Us    float64 `json:"p50_us"`
	P99Us    float64 `json:"p99_us"`
	P999Us   float64 `json:"p999_us"`
	MaxUs    float64 `json:"max_us"`
}

type report struct {
	Addr      string           `json:"addr"`
	Servers   int              `json:"servers,omitempty"`
	Workers   int              `json:"workers"`
	DurationS float64          `json:"duration_s"`
	Mix       string           `json:"mix"`
	Requests  int              `json:"requests"`
	Errors    int              `json:"errors"`
	RPS       float64          `json:"rps"`
	P50Us     float64          `json:"p50_us"`
	P99Us     float64          `json:"p99_us"`
	P999Us    float64          `json:"p999_us"`
	Endpoints []endpointReport `json:"endpoints"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ocdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := loadCfg{}
	fs.StringVar(&cfg.addr, "addr", "", "daemon base URL; empty self-hosts an in-process fleet")
	fs.IntVar(&cfg.servers, "servers", 2000, "self-hosted fleet size")
	fs.IntVar(&cfg.workers, "workers", 4, "concurrent closed-loop workers")
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "measurement window")
	fs.StringVar(&cfg.mix, "mix", "status=6,metrics=2,filter=1,prioritize=1",
		"weighted endpoint mix (filter, prioritize, status, metrics, healthz, place, remove, overclock) or a preset: read, mixed, write")
	fs.IntVar(&cfg.stepBatch, "step-batch", 10, "self-host: simulation steps per control-loop pass")
	fs.DurationVar(&cfg.stepPeriod, "step-period", 5*time.Millisecond,
		"self-host: idle gap between control-loop passes (0 disables stepping)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ocdbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if cfg.workers <= 0 || cfg.duration <= 0 || (cfg.addr == "" && cfg.servers <= 0) {
		fmt.Fprintln(stderr, "ocdbench: need positive workers, duration, and fleet size")
		return 2
	}

	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "ocdbench: %v\n", err)
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(stderr, "ocdbench: %v\n", err)
			return 1
		}
		return 0
	}
	printReport(stdout, rep)
	return 0
}

// mixPresets name the common load shapes so a run is `-mix write`
// instead of a hand-tuned weight list. The write preset weights the
// mutating endpoints heavily — the shape that stresses snapshot
// publication rather than the read plane.
var mixPresets = map[string]string{
	"read":  "status=6,metrics=2,filter=1,prioritize=1",
	"mixed": "status=3,filter=1,prioritize=1,place=2,remove=1,overclock=1",
	"write": "place=6,remove=5,overclock=4,status=1",
}

// parseMix expands "status=6,metrics=2,filter=1" (or a preset name)
// into a request schedule each worker cycles through, so the issued
// mix matches the weights exactly rather than statistically. Weights
// are reduced by their gcd first: "status=6,metrics=2" and
// "status=3,metrics=1" issue the same mix, and the shorter cycle keeps
// worker offset staggering effective at high weights.
func parseMix(mix string) ([]string, error) {
	if preset, ok := mixPresets[strings.TrimSpace(mix)]; ok {
		mix = preset
	}
	known := map[string]bool{
		"filter": true, "prioritize": true, "status": true, "metrics": true, "healthz": true,
		"place": true, "remove": true, "overclock": true,
	}
	type entry struct {
		name string
		w    int
	}
	var entries []entry
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want endpoint=weight", part)
		}
		if !known[name] {
			return nil, fmt.Errorf("mix entry %q: unknown endpoint", part)
		}
		w, err := strconv.Atoi(wstr)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: weight must be a non-negative integer", part)
		}
		entries = append(entries, entry{name, w})
	}
	g := 0
	for _, e := range entries {
		g = gcd(g, e.w)
	}
	var schedule []string
	for _, e := range entries {
		w := e.w
		if g > 1 {
			w /= g
		}
		for i := 0; i < w; i++ {
			schedule = append(schedule, e.name)
		}
	}
	if len(schedule) == 0 {
		return nil, fmt.Errorf("mix %q selects no endpoints", mix)
	}
	return schedule, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// selfHost builds a prefilled fleet, serves it on a loopback listener,
// and (unless disabled) runs a paced stepper that contends with the
// benchmark's readers exactly as scaled mode would. The returned
// cleanup tears down stepper and server.
func selfHost(cfg loadCfg) (addr string, cleanup func(), err error) {
	simCfg := dcsim.DefaultConfig()
	simCfg.Servers = cfg.servers
	simCfg.Events = []vm.Event{}
	d, err := ocd.New(simCfg, ocd.ModeStepped, telemetry.NewRegistry())
	if err != nil {
		return "", nil, err
	}
	h := d.Handler()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	addr = "http://" + ln.Addr().String()

	// Pack the fleet ~60% full so filter answers carry both eligible
	// and failed servers.
	c := api.NewClient(addr)
	ctx := context.Background()
	for i := 0; i < cfg.servers*3/5; i++ {
		_, err := c.Place(ctx, api.PlaceRequest{VM: api.VMSpec{
			ID: i, VCores: 8, MemoryGB: 32, AvgUtil: 0.6,
		}})
		if err != nil {
			_ = srv.Close()
			return "", nil, fmt.Errorf("prefill place %d: %w", i, err)
		}
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	if cfg.stepPeriod > 0 && cfg.stepBatch > 0 {
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Step(ctx, api.StepRequest{Steps: cfg.stepBatch}); err != nil {
					return
				}
				select {
				case <-stop:
					return
				case <-time.After(cfg.stepPeriod):
				}
			}
		}()
	} else {
		close(done)
	}
	cleanup = func() {
		close(stop)
		<-done
		_ = srv.Close()
	}
	return addr, cleanup, nil
}

// runLoad executes one closed-loop run and folds the per-worker
// digests into the report.
func runLoad(cfg loadCfg) (*report, error) {
	schedule, err := parseMix(cfg.mix)
	if err != nil {
		return nil, err
	}
	addr := cfg.addr
	servers := 0
	if addr == "" {
		servers = cfg.servers
		var cleanup func()
		addr, cleanup, err = selfHost(cfg)
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}

	ctx := context.Background()
	c := api.NewClient(addr)
	st, err := c.Status(ctx)
	if err != nil {
		return nil, fmt.Errorf("probe %s: %w", addr, err)
	}
	prioritizeN := st.Servers
	if prioritizeN > 64 {
		prioritizeN = 64
	}
	prioritizeServers := make([]int, prioritizeN)
	for i := range prioritizeServers {
		prioritizeServers[i] = i
	}
	filterVM := api.VMSpec{ID: 1, VCores: 16, MemoryGB: 64, AvgUtil: 0.9}
	prioritizeVM := api.VMSpec{ID: 1, VCores: 8, MemoryGB: 32, AvgUtil: 0.5}
	// Write-endpoint ID management: each worker owns a disjoint ID
	// stripe far above the prefill range, so concurrent placers never
	// collide, and keeps a FIFO of its own live placements for removes.
	// A remove with an empty FIFO departs a never-placed ID — a valid
	// no-op request, so the issued mix stays exactly as scheduled.
	const writeIDBase = 1 << 30
	const writeIDStride = 1 << 20

	type workerStats map[string]*endpointStats
	results := make([]workerStats, cfg.workers)
	errs := make([]error, cfg.workers)
	deadline := time.Now().Add(cfg.duration)
	start := time.Now()
	donec := make(chan int, cfg.workers)
	for w := 0; w < cfg.workers; w++ {
		go func(w int) {
			defer func() { donec <- w }()
			ws := make(workerStats, 5)
			results[w] = ws
			nextID := writeIDBase + w*writeIDStride
			var pendingIDs []int // this worker's live placements, FIFO
			ocServer := w
			// Stagger starting offsets so workers don't issue the
			// schedule in lockstep.
			i := w * (len(schedule)/cfg.workers + 1)
			for time.Now().Before(deadline) {
				name := schedule[i%len(schedule)]
				i++
				es := ws[name]
				if es == nil {
					es = &endpointStats{name: name, digest: stats.NewDigest()}
					ws[name] = es
				}
				t0 := time.Now()
				var err error
				switch name {
				case "filter":
					_, err = c.Filter(ctx, api.FilterRequest{VM: filterVM})
				case "prioritize":
					_, err = c.Prioritize(ctx, api.PrioritizeRequest{VM: prioritizeVM, Servers: prioritizeServers})
				case "status":
					_, err = c.Status(ctx)
				case "metrics":
					_, err = c.Metrics(ctx)
				case "healthz":
					err = c.Healthz(ctx)
				case "place":
					var resp api.PlaceResponse
					spec := api.VMSpec{ID: nextID, VCores: 2, MemoryGB: 8, AvgUtil: 0.5}
					nextID++
					resp, err = c.Place(ctx, api.PlaceRequest{VM: spec})
					if err == nil && resp.Placed {
						pendingIDs = append(pendingIDs, spec.ID)
					}
				case "remove":
					id := writeIDBase - 1 // never placed: a no-op departure
					if len(pendingIDs) > 0 {
						id = pendingIDs[0]
						pendingIDs = pendingIDs[1:]
					}
					_, err = c.Remove(ctx, api.RemoveRequest{ID: id})
				case "overclock":
					_, err = c.Overclock(ctx, api.OverclockGrantRequest{Server: ocServer % st.Servers})
					ocServer += cfg.workers
				}
				es.digest.Add(float64(time.Since(t0)) / float64(time.Microsecond))
				es.requests++
				if err != nil {
					es.errors++
					if es.errors > 100 {
						errs[w] = fmt.Errorf("%s: too many errors, last: %w", name, err)
						return
					}
				}
			}
		}(w)
	}
	for range results {
		<-donec
	}
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Merge the per-worker digests per endpoint, then across endpoints
	// for the headline quantiles.
	merged := map[string]*endpointStats{}
	for _, ws := range results {
		for name, es := range ws {
			m := merged[name]
			if m == nil {
				m = &endpointStats{name: name, digest: stats.NewDigest()}
				merged[name] = m
			}
			m.digest.Merge(es.digest)
			m.requests += es.requests
			m.errors += es.errors
		}
	}
	total := stats.NewDigest()
	rep := &report{
		Addr:      addr,
		Servers:   servers,
		Workers:   cfg.workers,
		DurationS: elapsed.Seconds(),
		Mix:       cfg.mix,
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := merged[name]
		total.Merge(m.digest)
		rep.Requests += m.requests
		rep.Errors += m.errors
		rep.Endpoints = append(rep.Endpoints, endpointReport{
			Endpoint: name,
			Requests: m.requests,
			Errors:   m.errors,
			RPS:      float64(m.requests) / elapsed.Seconds(),
			MeanUs:   m.digest.Mean(),
			P50Us:    m.digest.Quantile(0.5),
			P99Us:    m.digest.P99(),
			P999Us:   m.digest.Quantile(0.999),
			MaxUs:    m.digest.Max(),
		})
	}
	rep.RPS = float64(rep.Requests) / elapsed.Seconds()
	rep.P50Us = total.Quantile(0.5)
	rep.P99Us = total.P99()
	rep.P999Us = total.Quantile(0.999)
	return rep, nil
}

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "ocdbench: %s  workers=%d  duration=%.2fs  mix=%s\n",
		rep.Addr, rep.Workers, rep.DurationS, rep.Mix)
	if rep.Servers > 0 {
		fmt.Fprintf(w, "self-hosted fleet: %d servers\n", rep.Servers)
	}
	fmt.Fprintf(w, "total: %d requests (%d errors)  %.0f req/s  p50=%.1fµs p99=%.1fµs p999=%.1fµs\n\n",
		rep.Requests, rep.Errors, rep.RPS, rep.P50Us, rep.P99Us, rep.P999Us)
	fmt.Fprintf(w, "%-12s %10s %8s %10s %10s %10s %10s %10s\n",
		"endpoint", "requests", "errors", "req/s", "p50µs", "p99µs", "p999µs", "maxµs")
	for _, e := range rep.Endpoints {
		fmt.Fprintf(w, "%-12s %10d %8d %10.0f %10.1f %10.1f %10.1f %10.1f\n",
			e.Endpoint, e.Requests, e.Errors, e.RPS, e.P50Us, e.P99Us, e.P999Us, e.MaxUs)
	}
}
