// Command perfbench is the repository benchmark: four workloads that
// drive the system only through its public entry points (runner.Run,
// dcsim, ocd over HTTP) and print one JSON result line.
//
//	bash perfbench/run.sh --workload fleet-100k --seed 7 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an
// untraced run. With --trace 1 the benchmark runs the workload twice,
// untraced and then traced, and reports the per-layer metrics of the
// traced run; the spans it kept in memory are written to the output
// directory, and the difference between the two runs' end-to-end
// metrics is reported as the tracing overhead in the metadata line.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// {"meta": {...}} with the host, build and run metadata. See README.md
// for the workloads, the metrics, and the layer each one attributes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// endToEnd names the metrics every untraced run reports, with units.
// Each workload defines its own unit of work (README.md): the whole
// evaluation, one control step, or one client decision cycle.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_ms", "ms"},
	{"tail_ms", "ms"},
	{"rate_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

type metricDef struct{ name, unit string }

// params is what the driver controls: the input seed and the length
// of the measured window.
type params struct {
	seed   uint64
	window time.Duration
	// evalSeed runs the evaluation at a non-calibrated seed (0 keeps
	// the calibrated seeds and the digest check).
	evalSeed uint64
}

// result is one workload run: its operation counts, its end-to-end
// metrics, and (traced runs only) its per-layer metrics.
type result struct {
	attempted, failed int
	// correct is false when an output check failed; failed then
	// counts the failing checks along with failed operations.
	correct bool
	e2e     map[string]float64
	layers  map[string]float64
	// ops counts the units of work measured (evaluations, steps or
	// cycles), the base of mallocs_per_op.
	ops float64
	// meta carries workload-specific facts for the metadata line
	// (recorded digests, report strings).
	meta map[string]any
}

func newResult() *result {
	return &result{correct: true, e2e: map[string]float64{}, layers: map[string]float64{}, meta: map[string]any{}}
}

// check records one output check.
func (r *result) check(ok bool, format string, a ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", a...)
	}
}

// runFunc runs one workload at its benchmark size.
type runFunc func(p params, tr *tracer) (*result, error)

var workloads = map[string]runFunc{
	"evaluation": func(p params, tr *tracer) (*result, error) {
		ec := defaultEvalConfig()
		ec.Seed = p.evalSeed
		return runEvaluation(ec, p, tr)
	},
	"fleet-100k": func(p params, tr *tracer) (*result, error) {
		return runFleet(defaultFleetConfig(), p, tr)
	},
	"sched-10k": func(p params, tr *tracer) (*result, error) {
		return runServing(defaultServeConfig(cycleSched), p, tr)
	},
	"autoscale-10k": func(p params, tr *tracer) (*result, error) {
		return runServing(defaultServeConfig(cycleAutoscale), p, tr)
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: evaluation, fleet-100k, sched-10k, autoscale-10k")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	evalSeed := fs.Uint64("eval-seed", 0, "evaluation only: experiment seed (0 = calibrated, digests checked)")
	outDir := fs.String("out", filepath.Join(".bench_build", "out"), "directory for spans and full results")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	p := params{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), evalSeed: *evalSeed}

	res, err := measure(fn, p, nil)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	meta := runMeta(*name, p, res)
	out := res
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
		traced, err := measure(fn, p, tr)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		overhead := map[string]float64{}
		for _, m := range endToEnd {
			overhead[m.name] = traced.e2e[m.name] - res.e2e[m.name]
		}
		meta["tracing_overhead"] = overhead
		meta["traced"] = traced.meta
		out = traced
		// Tracing must not change what the system computes.
		for _, k := range []string{"report", "digests"} {
			if u, ok := res.meta[k]; ok {
				out.check(reflect.DeepEqual(u, traced.meta[k]), "traced %s differs from untraced", k)
			}
		}
		// Both passes count: a check that failed untraced still fails
		// the run.
		out.attempted += res.attempted
		out.failed += res.failed
		out.correct = out.correct && res.correct
	}

	line, err := resultLine(out, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := writeOutputs(*outDir, *name, p, *trace, tr, meta, line); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	metaLine, err := json.Marshal(map[string]any{"meta": meta})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", metaLine, line)
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// measure runs one pass with the runtime counters around it and fills
// the metrics every workload shares.
func measure(fn runFunc, p params, tr *tracer) (*result, error) {
	runtime.GC()
	before := readRuntime()
	res, err := fn(p, tr)
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	res.e2e["peak_rss_mb"] = peakRSSMB()
	res.layers["gc.cpu_s"] = after.gcCPU - before.gcCPU
	if res.ops > 0 {
		res.layers["mallocs_per_op"] = float64(after.mallocs-before.mallocs) / res.ops
	}
	return res, nil
}

// resultLine renders the driver's result object: every end-to-end
// metric for an untraced run, every per-layer metric for a traced one.
// Per-layer metrics of layers the workload does not call read 0.
func resultLine(r *result, traced bool) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	defs := endToEnd
	vals := r.e2e
	if traced {
		defs = layerMetrics()
		vals = r.layers
	}
	for _, d := range defs {
		v := vals[d.name]
		if err := mustFinite(d.name, v); err != nil {
			return nil, err
		}
		ms[d.name] = metric{Value: v, Unit: d.unit}
	}
	if !traced {
		for _, d := range defs {
			if vals[d.name] <= 0 {
				return nil, fmt.Errorf("end-to-end metric %s is %v, want > 0", d.name, vals[d.name])
			}
		}
	}
	if r.attempted < 1 {
		return nil, errors.New("workload attempted nothing")
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct && r.failed == 0, r.attempted, r.failed, ms})
}

// writeOutputs stores the full result (metadata included) and, for a
// traced run, the spans as JSON lines.
func writeOutputs(dir, name string, p params, trace int, tr *tracer, meta map[string]any, line []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, p.seed, trace))
	full, err := json.MarshalIndent(map[string]any{"meta": meta, "result": json.RawMessage(line)}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(full, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeJSONL(base + ".spans.jsonl")
	}
	return nil
}

// runMeta describes the host, build and run.
func runMeta(name string, p params, r *result) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       p.seed,
		"seconds":    p.window.Seconds(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"cpu":        cpuModel(),
		"untraced":   r.meta,
	}
}

// commit reads the checkout's HEAD without invoking git; "unknown"
// outside a repository.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if r, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(r)))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type runtimeCounters struct {
	gcCPU   float64
	mallocs uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	var c runtimeCounters
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.mallocs = s[1].Value.Uint64()
	}
	return c
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
