// Package runner executes registered experiments concurrently through
// a bounded worker pool. It is the substrate every evaluation entry
// point fans out through: octl drives it for the CLI, the benchmarks
// measure it, and future parameter sweeps and calibration searches are
// expected to submit thousands of experiment evaluations through the
// same engine.
//
// The engine provides, per run:
//
//   - bounded parallelism (Config.Workers, default GOMAXPROCS),
//   - context cancellation (a cancelled context marks the remaining
//     experiments as failed with the context error and returns
//     promptly; running experiments honor cancellation at their
//     internal simulation boundaries — the kernel's event batches and
//     the fleet simulation's control steps — so a cancelled or
//     timed-out simulation stops mid-run instead of completing),
//   - per-experiment timeouts (Config.Timeout),
//   - panic isolation (a panicking experiment reports an error with
//     its stack instead of killing the run),
//   - bounded retries for flaky harnesses (Config.Retries), and
//   - per-experiment observability: wall time, result row count,
//     attempt count and pass/fail, aggregated into a Report with
//     latency percentiles and a telemetry snapshot (Config.Metrics)
//     carrying each experiment's engine metrics under a scope named
//     after it.
//
// Outcomes are reported in submission order regardless of completion
// order, so a parallel run is byte-for-byte comparable with a serial
// one.
//
// Worker slots are tokens in a budget shared with internal/sweep
// (sweep.Shared unless Config.Budget overrides it): each worker holds
// a token while its experiment runs, and an experiment that fans its
// own grid out through sweep.Map lends that token to its cells while
// the worker blocks on them. The requested worker count therefore
// bounds total live parallelism — experiments plus sweep cells — and
// the resolved count is threaded into experiments.Options.Workers so
// `octl -j` reaches inside each experiment's grid loops.
//
// Each run also gets one cell memo (sweep.Memo, threaded through
// experiments.Options.Memo unless the caller supplies one): experiments
// that simulate the same cell — fig16, table11 and policies all run the
// Table XI ramp — compute it once between them. An experiment waiting
// on a cell another experiment is computing lends its token while it
// blocks; the wait counts in its Outcome.Wall and against its own
// Timeout.
package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"immersionoc/internal/experiments"
	"immersionoc/internal/sweep"
	"immersionoc/internal/telemetry"
)

// Config tunes one Run call. The zero value runs with GOMAXPROCS
// workers, no per-experiment timeout and no retries.
type Config struct {
	// Workers bounds the number of experiments executing at once.
	// Non-positive means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout, when positive, bounds each experiment attempt; the
	// attempt's context is cancelled at the deadline. Experiments honor
	// cancellation at their internal simulation boundaries.
	Timeout time.Duration
	// Retries is the number of times a failing experiment is re-run
	// before its error is reported. Panics and timeouts count as
	// failures; context cancellation is never retried.
	Retries int
	// Options is passed to every experiment. The zero value reproduces
	// the published tables.
	Options experiments.Options
	// OnDone, when non-nil, is called as each experiment finishes with
	// its submission index and outcome. It may be called from multiple
	// worker goroutines concurrently; the callback must be safe for
	// that.
	OnDone func(i int, o Outcome)
	// Metrics selects the telemetry registry for the run. Nil (the
	// zero value) gives the run a fresh registry so concurrent Run
	// calls do not mix; pass telemetry.Default to publish into the
	// process-wide registry, or telemetry.Off to disable collection.
	// Each experiment's harness metrics land under a scope named
	// after the experiment; the runner's own counters land under
	// "runner".
	Metrics *telemetry.Registry
	// Budget is the worker-token pool shared between the runner and
	// the intra-experiment sweeps. Nil uses sweep.Shared, the
	// process-wide budget. Each worker holds a token while its
	// experiment runs and lends it to the experiment's sweep cells
	// while blocked on them, so experiments × cells never exceed the
	// budget's capacity. The budget is grown to the requested worker
	// count, never shrunk, so the runner's own parallelism is never
	// throttled below Workers.
	Budget *sweep.Budget
}

// Outcome is the observed result of one submitted experiment.
type Outcome struct {
	// Name is the experiment name.
	Name string
	// Result holds the artifact when Err is nil.
	Result experiments.Result
	// Err is the experiment error, the recovered panic, the attempt
	// timeout, or the run's cancellation error.
	Err error
	// Wall is the total wall-clock time spent on the experiment across
	// all attempts. Zero for experiments skipped by cancellation.
	Wall time.Duration
	// Rows is the structured row count of the result (0 for plots and
	// failures).
	Rows int
	// Attempts is the number of times the experiment ran (0 when it
	// was skipped by cancellation).
	Attempts int
	// Panicked reports whether the final attempt ended in a recovered
	// panic.
	Panicked bool
}

// OK reports whether the experiment produced its artifact.
func (o Outcome) OK() bool { return o.Err == nil }

// Report aggregates one Run call.
type Report struct {
	// Outcomes holds one entry per submitted experiment, in submission
	// order.
	Outcomes []Outcome
	// Wall is the wall-clock duration of the whole run.
	Wall time.Duration
	// Workers is the resolved worker count the run used.
	Workers int
	// Telemetry is the run's metrics snapshot: one scope per
	// experiment (engine counters, latency histograms, power/thermal
	// gauges) plus the runner's own "runner" scope. Nil when the run
	// used telemetry.Off.
	Telemetry *telemetry.Snapshot

	// sortedWalls caches the sorted per-experiment wall times for
	// Percentile; computed once on first use.
	sortOnce    sync.Once
	sortedWalls []time.Duration
}

// Failed returns the outcomes that did not produce an artifact.
func (r *Report) Failed() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if !o.OK() {
			out = append(out, o)
		}
	}
	return out
}

// TotalExperimentTime is the summed per-experiment wall time — the
// serial cost the worker pool amortized.
func (r *Report) TotalExperimentTime() time.Duration {
	var sum time.Duration
	for _, o := range r.Outcomes {
		sum += o.Wall
	}
	return sum
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1, nearest-rank) of the
// per-experiment wall times, or 0 for an empty run. The sorted wall
// times are computed once on first call and cached — Summary alone
// asks for two percentiles — so call it only after the run's outcomes
// are final.
func (r *Report) Percentile(p float64) time.Duration {
	if len(r.Outcomes) == 0 {
		return 0
	}
	r.sortOnce.Do(func() {
		walls := make([]time.Duration, len(r.Outcomes))
		for i, o := range r.Outcomes {
			walls[i] = o.Wall
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		r.sortedWalls = walls
	})
	walls := r.sortedWalls
	idx := int(math.Ceil(p*float64(len(walls)))) - 1
	if idx >= len(walls) {
		idx = len(walls) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return walls[idx]
}

// Slowest returns the longest-running outcome, or a zero Outcome for
// an empty run.
func (r *Report) Slowest() Outcome {
	var max Outcome
	for i, o := range r.Outcomes {
		if i == 0 || o.Wall > max.Wall {
			max = o
		}
	}
	return max
}

// Summary renders the one-line run footer octl prints.
func (r *Report) Summary() string {
	ok, retried := 0, 0
	for _, o := range r.Outcomes {
		if o.OK() {
			ok++
		}
		if o.Attempts > 1 {
			retried++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d experiments in %s (%d workers): %d ok, %d failed",
		len(r.Outcomes), round(r.Wall), r.Workers, ok, len(r.Outcomes)-ok)
	if retried > 0 {
		fmt.Fprintf(&b, ", %d retried", retried)
	}
	if len(r.Outcomes) > 0 {
		slow := r.Slowest()
		fmt.Fprintf(&b, "; exp wall p50=%s p95=%s max=%s (%s); serial cost %s",
			round(r.Percentile(0.50)), round(r.Percentile(0.95)),
			round(slow.Wall), slow.Name, round(r.TotalExperimentTime()))
	}
	return b.String()
}

// round trims a duration for display.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	}
	return d
}

// Run executes the experiments through the worker pool and returns
// when every submitted experiment has either finished or been skipped
// by cancellation. Outcomes appear in submission order. Run never
// panics because of an experiment; it is safe to call concurrently
// with itself.
func Run(ctx context.Context, exps []experiments.Experiment, cfg Config) *Report {
	requested := cfg.Workers
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		requested = 1
	}
	// The pool never needs more workers than experiments, but the
	// requested width still reaches inside each experiment: a lone
	// `octl fig12 -j 8` runs one experiment whose sweep fans its grid
	// out 8-wide.
	workers := requested
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}
	budget := cfg.Budget
	if budget == nil {
		budget = sweep.Shared
	}
	budget.Grow(requested)
	if cfg.Options.Workers == 0 {
		cfg.Options.Workers = requested
	}
	if cfg.Options.Memo == nil {
		cfg.Options.Memo = sweep.NewMemo()
	}
	report := &Report{Outcomes: make([]Outcome, len(exps)), Workers: workers}
	start := time.Now()

	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	rm := runMetrics{
		attempts: reg.Scope("runner").Counter("attempts"),
		retries:  reg.Scope("runner").Counter("retries"),
		panics:   reg.Scope("runner").Counter("panics"),
		failures: reg.Scope("runner").Counter("failures"),
		skipped:  reg.Scope("runner").Counter("skipped"),
		wall:     reg.Scope("runner").Histogram("wall_s", telemetry.WallBuckets),
	}

	jobs := make(chan int, len(exps))
	for i := range exps {
		jobs <- i
	}
	close(jobs)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				var o Outcome
				if lease, err := acquireSlot(ctx, budget); err != nil {
					// The run was cancelled: mark the remaining
					// experiments without starting them.
					o = Outcome{Name: exps[i].Name, Err: err}
					rm.skipped.Inc()
				} else {
					// The experiment runs holding a budget token; its
					// context carries the lease so a sweep inside can
					// lend the slot to its cells while this worker
					// blocks on them.
					o = runOne(sweep.Attach(ctx, lease), exps[i], cfg, reg, rm)
					lease.Release()
				}
				report.Outcomes[i] = o
				if cfg.OnDone != nil {
					cfg.OnDone(i, o)
				}
			}
		}()
	}
	wg.Wait()
	report.Wall = time.Since(start)
	report.Telemetry = reg.Snapshot()
	return report
}

// acquireSlot takes a budget token, refusing outright when the run is
// already cancelled (a free token must not resurrect a skipped
// experiment).
func acquireSlot(ctx context.Context, b *sweep.Budget) (*sweep.Lease, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.Acquire(ctx)
}

// runMetrics holds the runner's own telemetry handles (all nil no-ops
// when collection is off).
type runMetrics struct {
	attempts, retries, panics, failures, skipped *telemetry.Counter
	wall                                         *telemetry.Histogram
}

// runOne executes a single experiment with retries. The experiment's
// harness publishes its engine metrics into a scope keyed by the
// experiment name.
func runOne(ctx context.Context, e experiments.Experiment, cfg Config, reg *telemetry.Registry, rm runMetrics) Outcome {
	out := Outcome{Name: e.Name}
	cfg.Options.Tel = reg.Scope(e.Name)
	start := time.Now()
	for attempt := 0; ; attempt++ {
		out.Attempts = attempt + 1
		rm.attempts.Inc()
		if attempt > 0 {
			rm.retries.Inc()
		}
		res, panicked, err := attemptOne(ctx, e, cfg)
		out.Panicked = panicked
		out.Err = err
		if panicked {
			rm.panics.Inc()
		}
		if err == nil {
			out.Result = res
			out.Rows = res.RowCount()
			break
		}
		if attempt >= cfg.Retries || ctx.Err() != nil {
			break
		}
	}
	if out.Err != nil {
		rm.failures.Inc()
	}
	out.Wall = time.Since(start)
	rm.wall.Observe(out.Wall.Seconds())
	return out
}

// attemptOne makes one attempt under the per-attempt timeout,
// converting a panic into an error carrying the stack.
func attemptOne(ctx context.Context, e experiments.Experiment, cfg Config) (res experiments.Result, panicked bool, err error) {
	actx := ctx
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			panicked = true
			err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
		}
	}()
	res, err = e.Run(actx, cfg.Options)
	// An experiment that returns success after its deadline passed
	// raced the timeout; the artifact is still good, keep it.
	return res, false, err
}
