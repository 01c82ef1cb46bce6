package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/vm"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.1, 1.4}, {0.99, 4.96},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("empty summary = %+v, want zero", s)
	}
	xs := []float64{4, 1, 3, 2}
	s := summarize(xs)
	if s.N != 4 || s.Mean != 2.5 || s.P50 != 2.5 || !sort.Float64sAreSorted(xs) {
		t.Errorf("summary = %+v of %v", s, xs)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the root
		{ID: 5, Parent: 2, Name: "grandchild", Start: 12, End: 14},
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 5},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 2, 20, 30, 2, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	ix := indexSpans(spans)
	if tot := ix.total("root", true, time.Nanosecond); tot != 60 {
		t.Errorf("root self total = %v", tot)
	}
	if len(ix.names["a"]) != 1 || len(ix.names["missing"]) != 0 {
		t.Error("span counts")
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	id, end := tr.begin("x", 0)
	end()
	if id != 0 || tr.now() != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded something")
	}
	tr = newTracer()
	id, end = tr.begin("x", 7)
	end()
	s := tr.snapshot()
	if len(s) != 1 || s[0].ID != id || s[0].Parent != 7 || s[0].End < s[0].Start {
		t.Errorf("spans = %+v", s)
	}
}

func TestEligibleIndices(t *testing.T) {
	body := []byte(`{"version":"v1","eligible":[{"index":3,"id":3,"tank":0},{"index":17,"id":17,"tank":1},{"index":20,"id":20,"tank":1}],"failed":[{"server":{"index":4,"id":4,"tank":0},"reason":"capacity"}]}`)
	if got := eligibleIndices(body, 64, nil); !equalInts(got, []int{3, 17, 20}) {
		t.Errorf("all: %v", got)
	}
	if got := eligibleIndices(body, 2, nil); !equalInts(got, []int{3, 17}) {
		t.Errorf("first two: %v", got)
	}
	none := []byte(`{"version":"v1","failed":[{"server":{"index":4,"id":4,"tank":0},"reason":"capacity"}]}`)
	if got := eligibleIndices(none, 64, nil); len(got) != 0 {
		t.Errorf("no eligible key: %v", got)
	}
}

func TestPlaceOutcome(t *testing.T) {
	if ok, s := placeOutcome([]byte(`{"version":"v1","placed":true,"server":{"index":42,"id":42,"tank":3}}`)); !ok || s != 42 {
		t.Errorf("placed: %v %d", ok, s)
	}
	if ok, s := placeOutcome([]byte(`{"version":"v1","placed":false,"error":"no capacity"}`)); ok || s != -1 {
		t.Errorf("rejected: %v %d", ok, s)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload names the code emits in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !equalStrings(names, workloadNames()) {
		t.Errorf("workloads %v, code has %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, code has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, code has %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, layerMetrics())
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "evaluation", "--trace", "2"},
		{"--workload", "evaluation", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%v) = %d, stdout %q", args, code, out.String())
		}
	}
}

// smokeParams is a window short enough for a unit test.
var smokeParams = params{seed: 3, window: 300 * time.Millisecond}

func assertLayers(t *testing.T, r *result, names ...string) {
	t.Helper()
	for _, n := range names {
		if r.layers[n] <= 0 {
			t.Errorf("layer metric %s = %v, want > 0", n, r.layers[n])
		}
	}
}

func assertCorrect(t *testing.T, r *result) {
	t.Helper()
	if !r.correct || r.failed != 0 || r.attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", r.correct, r.attempted, r.failed)
	}
	if _, err := resultLine(r, false); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluationSmoke(t *testing.T) {
	ec := defaultEvalConfig()
	ec.Names = []string{"table1", "fig9", "table5"}
	untraced, err := runEvaluation(ec, smokeParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	untraced.e2e["peak_rss_mb"] = 1
	assertCorrect(t, untraced)

	tr := newTracer()
	traced, err := runEvaluation(ec, smokeParams, tr)
	if err != nil {
		t.Fatal(err)
	}
	assertLayers(t, traced, "runner.serial_s", "runner.efficiency")
	if n := len(indexSpans(tr.snapshot()).names["exp.fig9"]); n == 0 {
		t.Error("no exp.fig9 span")
	}

	// A non-calibrated seed records digests instead of checking them.
	ec.Seed = 99
	other, err := runEvaluation(ec, smokeParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !other.correct || len(other.meta["digests"].(map[string]string)) != len(ec.Names) {
		t.Errorf("seeded run: correct=%v meta=%v", other.correct, other.meta)
	}
}

func tinyFleet() fleetConfig {
	return fleetConfig{Servers: 240, ArrivalsPerS: 0.15, HorizonS: 4 * 3600}
}

// TestFleetReplayMatchesBatch pins the benchmark's own event replay
// (Sim.Place/Remove between steps) and the timed decider to the batch
// path: all three runs report the same KPIs.
func TestFleetReplayMatchesBatch(t *testing.T) {
	fc := tinyFleet()
	cfg := dcsim.DefaultConfig()
	cfg.Servers, cfg.ServersPerTank = fc.Servers, serversPerTank
	cfg.FeederBudgetW = feederWPerServer * float64(fc.Servers)
	cfg.Trace = vm.DefaultTrace
	cfg.Trace.Seed = smokeParams.seed
	cfg.Trace.ArrivalRatePerS, cfg.Trace.MeanLifetimeS, cfg.Trace.DurationS = fc.ArrivalsPerS, fleetLifetimeS, fc.HorizonS
	batch, err := dcsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fc.Expected = map[uint64]string{smokeParams.seed: batch.String()}

	untraced, err := runFleet(fc, smokeParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	untraced.e2e["peak_rss_mb"] = 1
	assertCorrect(t, untraced)

	traced, err := runFleet(fc, smokeParams, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if !traced.correct || traced.meta["report"] != batch.String() {
		t.Errorf("traced report %v, batch %s", traced.meta["report"], batch.String())
	}
	assertLayers(t, traced, "fleet.place_ms", "fleet.step_ms", "fleet.decide_ms", "fleet.snapshot_ms",
		"fleet.events_per_step", "setup.trace_s", "setup.sim_new_s", "setup.prefill_s")

	// A wrong expectation is caught.
	fc.Expected[smokeParams.seed] = "not the report"
	bad, err := runFleet(fc, smokeParams, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bad.correct || bad.failed == 0 {
		t.Error("a mismatched report passed the check")
	}
}

func tinyServe(kind cycleKind) serveConfig {
	sc := defaultServeConfig(kind)
	sc.Servers = 240
	sc.StepsPerSec = 20
	sc.PoolVMs = 256
	sc.SetupReps = 2
	sc.SampleEvery = 8
	sc.LiveTarget = 8
	return sc
}

func TestServingSmoke(t *testing.T) {
	for _, c := range []struct {
		name   string
		kind   cycleKind
		layers []string
	}{
		{"sched", cycleSched, []string{"filter.handler_p50_us", "prioritize.rtt_p99_us", "place.handler_p50_us",
			"remove.handler_p50_us", "filter.resp_kb", "transport_p50_us", "ctl.steps", "place.placed_ratio"}},
		{"autoscale", cycleAutoscale, []string{"overclock.handler_p50_us", "status.handler_p50_us",
			"place.rtt_p50_us", "remove.rtt_p50_us", "transport_p50_us", "ctl.steps", "place.placed_ratio"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			untraced, err := runServing(tinyServe(c.kind), smokeParams, nil)
			if err != nil {
				t.Fatal(err)
			}
			untraced.e2e["peak_rss_mb"] = 1
			assertCorrect(t, untraced)

			traced, err := runServing(tinyServe(c.kind), smokeParams, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			traced.e2e["peak_rss_mb"] = 1
			assertCorrect(t, traced)
			if n := traced.meta["shape_checks"].(int); n == 0 {
				t.Error("no answer was shape-checked")
			}
			assertLayers(t, traced, c.layers...)
			assertLayers(t, traced, "setup.trace_s", "setup.sim_new_s", "setup.prefill_s")
		})
	}
}

// TestVerifyCatchesBadAnswers feeds the sampled-answer checks answers
// that contradict the fast path or the fleet shape.
func TestVerifyCatchesBadAnswers(t *testing.T) {
	c := &client{sc: tinyServe(cycleSched)}
	c.sc.Servers = 3
	c.samples = []sample{
		{route: "filter", body: []byte(`{"version":"v1","eligible":[{"index":0,"id":0,"tank":0}],"failed":[{"server":{"index":1,"id":1,"tank":0},"reason":"capacity"},{"server":{"index":2,"id":2,"tank":0},"reason":"capacity"}]}`), cands: []int{0}},
		{route: "filter", body: []byte(`{"version":"v1","eligible":[{"index":0,"id":0,"tank":0}]}`), cands: []int{0}},
		{route: "prioritize", body: []byte(`{"version":"v1","scores":[{"server":{"index":0,"id":0,"tank":0},"score":50}]}`), cands: []int{0, 1}},
		{route: "place", body: []byte(`{"version":"v1","placed":true,"server":{"index":2,"id":2,"tank":0}}`), placed: true, server: 1},
		{route: "status", body: []byte(`not json`)},
	}
	c.verify()
	if c.checks != 5 || c.checkFail != 4 {
		t.Errorf("checks=%d failures=%d, want 5 and 4", c.checks, c.checkFail)
	}
}

// TestWindowStatsIgnoresAStall: a stall confined to one sub-window
// moves neither the median p50, the median p95 nor the median rate.
func TestWindowStatsIgnoresAStall(t *testing.T) {
	var samples []cycleSample
	for w := 0; w < 5; w++ {
		n, us := 100, 1000.0
		if w == 2 {
			n, us = 10, 50000 // the stall: few, slow cycles
		}
		for i := 0; i < n; i++ {
			samples = append(samples, cycleSample{at: float64(w) + float64(i)/float64(n), us: us + float64(i)})
		}
	}
	ws, err := windowStats(samples, 5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ws.rate != 100 || ws.p50 != 1049.5 || math.Abs(ws.p95-1094.05) > 1e-9 {
		t.Errorf("stats = %+v", ws)
	}
	if _, err := windowStats(nil, 5, 5); err == nil {
		t.Error("no samples should be an error")
	}
}
