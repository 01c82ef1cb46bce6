// Command ocd is the overclocking control-plane daemon: the paper's
// placement + overclock governor served live over HTTP instead of
// replayed in batch. It loads a fleet (the same dcsim models octl's
// experiments run), advances the simulation in stepped or scaled time,
// and serves the typed v1 API defined in internal/api — the shape of a
// Kubernetes scheduler extender (filter/prioritize) plus the overclock
// grant/cancel verb and deterministic time control:
//
//	ocd -fleet default -listen 127.0.0.1:8080 &
//	curl -s localhost:8080/v1/status | jq .
//	curl -s -XPOST localhost:8080/v1/filter -d '{"vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":0.5}}'
//	curl -s -XPOST localhost:8080/v1/overclock -d '{"server":3}'
//	curl -s -XPOST localhost:8080/v1/step -d '{"steps":12}'
//	curl -s localhost:8080/metrics
//
// Flags:
//
//	-listen addr  API listen address (default 127.0.0.1:8080; use
//	              127.0.0.1:0 for an ephemeral port — the resolved
//	              address is logged on stderr)
//	-fleet spec   "default" or a JSON fleet-config file (see fleetFile)
//	-mode m       "stepped" (time advances only via POST /v1/step) or
//	              "scaled" (wall-clock drives steps continuously)
//	-scale X      in scaled mode, simulated seconds per wall second
//	-shards N     partition the fleet into N concurrently-stepped
//	              shards (0 = serial; KPIs are byte-stable either way)
//	-j N          GOMAXPROCS override (0 = runtime default); also grows
//	              the shared worker budget sharded stepping draws from
//	-seed N       override the fleet trace's RNG seed
//	-timeout d    graceful-shutdown drain budget (0 = 5s)
//	-metrics f    write the final telemetry snapshot as JSON to f on exit
//	-pprof addr   serve net/http/pprof on addr
//
// On SIGTERM or SIGINT the daemon drains in-flight requests, writes
// the final telemetry snapshot (-metrics), logs the closing fleet
// report, and exits 0.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"immersionoc/internal/cli"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/ocd"
	"immersionoc/internal/sweep"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

type options struct {
	cli.Common // -j, -seed, -timeout, -metrics, -pprof

	listen string
	fleet  string
	mode   string
	scale  float64
	shards int
}

// parseArgs parses the command line. A parse error has already been
// reported on stderr by the FlagSet, with usage.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	var c options
	fs := flag.NewFlagSet("ocd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c.Register(fs)
	fs.StringVar(&c.listen, "listen", "127.0.0.1:8080", "API listen address (host:0 picks an ephemeral port)")
	fs.StringVar(&c.fleet, "fleet", "default", `fleet config: "default" or a JSON file path`)
	fs.StringVar(&c.mode, "mode", "stepped", `time mode: "stepped" (POST /v1/step) or "scaled" (wall clock)`)
	fs.Float64Var(&c.scale, "scale", 300, "scaled mode: simulated seconds per wall second")
	fs.IntVar(&c.shards, "shards", 0, "fleet simulation shards stepped concurrently (0 = serial)")
	_, err := cli.ParseInterleaved(fs, args)
	return c, err
}

// validate checks the parsed flag values against each other and their
// ranges.
func (c *options) validate() error {
	if c.mode != ocd.ModeStepped && c.mode != ocd.ModeScaled {
		return fmt.Errorf("-mode must be %q or %q", ocd.ModeStepped, ocd.ModeScaled)
	}
	if c.scale <= 0 {
		return errors.New("-scale must be positive")
	}
	if c.shards < 0 {
		return errors.New("-shards must be non-negative")
	}
	return nil
}

// fleetFile is the JSON schema of -fleet (snake_case, matching the
// wire convention). A trace block with a positive arrival rate makes
// the daemon replay that generated workload during steps (closed
// loop); without one the daemon starts empty and arrivals come only
// through the API (open loop).
type fleetFile struct {
	Servers            int     `json:"servers"`
	ServersPerTank     int     `json:"servers_per_tank"`
	OversubRatio       float64 `json:"oversub_ratio"`
	FeederBudgetW      float64 `json:"feeder_budget_w"`
	StepS              float64 `json:"step_s"`
	OverclockThreshold float64 `json:"overclock_threshold"`
	DurationS          float64 `json:"duration_s"`
	Trace              *struct {
		Seed             uint64  `json:"seed"`
		ArrivalRatePerS  float64 `json:"arrival_rate_per_s"`
		MeanLifetimeS    float64 `json:"mean_lifetime_s"`
		HighPerfFraction float64 `json:"high_perf_fraction"`
	} `json:"trace,omitempty"`
}

// loadFleet resolves -fleet into a dcsim config. The file must hold
// exactly one fleetFile document; an unknown key (a typo such as
// "server") is an error rather than a silently ignored setting. The
// -seed override applies to a replayed trace's RNG.
func loadFleet(spec string, seed uint64) (dcsim.Config, error) {
	cfg := dcsim.DefaultConfig()
	if spec == "default" || spec == "" {
		cfg.Events = []vm.Event{} // open loop: the API drives arrivals
		return cfg, nil
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return cfg, err
	}
	var f fleetFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return cfg, fmt.Errorf("fleet %s: %w", spec, err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return cfg, fmt.Errorf("fleet %s: trailing data after JSON document", spec)
	}
	if f.Servers > 0 {
		cfg.Servers = f.Servers
	}
	if f.ServersPerTank > 0 {
		cfg.ServersPerTank = f.ServersPerTank
	}
	cfg.OversubRatio = f.OversubRatio
	cfg.FeederBudgetW = f.FeederBudgetW
	if f.StepS > 0 {
		cfg.StepS = f.StepS
	}
	if f.OverclockThreshold > 0 {
		cfg.OverclockThreshold = f.OverclockThreshold
	}
	if f.DurationS > 0 {
		cfg.Trace.DurationS = f.DurationS
	}
	if f.Trace != nil && f.Trace.ArrivalRatePerS > 0 {
		cfg.Trace.Seed = f.Trace.Seed
		cfg.Trace.ArrivalRatePerS = f.Trace.ArrivalRatePerS
		if f.Trace.MeanLifetimeS > 0 {
			cfg.Trace.MeanLifetimeS = f.Trace.MeanLifetimeS
		}
		cfg.Trace.HighPerfFraction = f.Trace.HighPerfFraction
	} else {
		cfg.Events = []vm.Event{}
	}
	if seed != 0 {
		cfg.Trace.Seed = seed
	}
	return cfg, nil
}

func run(args []string, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if err != nil {
		return 2
	}
	if err := c.validate(); err != nil {
		fmt.Fprintf(stderr, "ocd: %v\n", err)
		return 2
	}
	if c.Workers > 0 {
		runtime.GOMAXPROCS(c.Workers)
		// The sharded simulation draws its step workers from the same
		// process-wide budget octl's sweeps use; -j sizes both.
		sweep.Shared.Grow(c.Workers)
	}

	cfg, err := loadFleet(c.fleet, c.Seed)
	if err != nil {
		fmt.Fprintf(stderr, "ocd: %v\n", err)
		return 1
	}
	cfg.Shards = c.shards
	reg := telemetry.NewRegistry()
	cfg.Tel = reg.Scope("dcsim")
	d, err := ocd.New(cfg, c.mode, reg)
	if err != nil {
		fmt.Fprintf(stderr, "ocd: %v\n", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if c.Pprof != "" {
		ln, err := cli.ServePprof("ocd", c.Pprof, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "ocd: %v\n", err)
			return 1
		}
		defer ln.Close()
	}

	ln, err := cli.Listen("ocd", "api", c.listen, "/v1", stderr)
	if err != nil {
		fmt.Fprintf(stderr, "ocd: %v\n", err)
		return 1
	}
	srv := newHTTPServer(d.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	if c.mode == ocd.ModeScaled {
		go d.RunScaled(ctx, c.scale)
	}

	// Wait for a signal (or the server dying under us), then drain:
	// in-flight requests finish within the timeout, the final telemetry
	// snapshot is flushed, and the closing fleet report is logged.
	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(stderr, "ocd: serve: %v\n", err)
		return 1
	}
	stop()
	drain := c.Timeout
	if drain <= 0 {
		drain = 5 * time.Second
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintf(stderr, "ocd: shutdown: %v\n", err)
	}
	if c.Metrics != "" {
		if err := writeMetrics(c.Metrics, reg); err != nil {
			fmt.Fprintf(stderr, "ocd: metrics: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(stderr, "ocd: final: %s\n", d.FinalReport())
	return 0
}

// newHTTPServer wraps the daemon handler in an http.Server with the
// timeouts a long-lived control plane needs: a slowloris client
// dribbling its header or body cannot pin a connection open forever,
// while responses stay unbounded because a chunked /v1/step batch may
// legitimately take minutes to answer.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// writeMetrics flushes the registry snapshot as indented JSON.
func writeMetrics(path string, reg *telemetry.Registry) error {
	data, err := reg.Snapshot().MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
