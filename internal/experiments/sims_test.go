package experiments

import (
	"context"
	"errors"
	"testing"

	"immersionoc/internal/autoscaler"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// shortFig12Params shrinks the run for CI while keeping the regime.
func shortFig12Params() Fig12Params {
	p := DefaultFig12Params()
	p.DurationS = 180
	return p
}

func TestFig12Shape(t *testing.T) {
	p := shortFig12Params()
	if testing.Short() {
		p.DurationS = 90
		p.PCoreSteps = []int{12, 16}
	}
	data, err := Fig12Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Latency decreases with pcores within each config.
	for _, cfgName := range []string{"B2", "OC3"} {
		prev := -1.0
		for _, pc := range p.PCoreSteps {
			d, ok := Fig12Find(data, cfgName, pc)
			if !ok {
				t.Fatalf("missing point %s/%d", cfgName, pc)
			}
			if d.MeanP95MS <= 0 {
				t.Fatalf("%s/%d: non-positive P95", cfgName, pc)
			}
			if prev > 0 && d.MeanP95MS > prev*1.10 {
				t.Errorf("%s: P95 rose from %v to %v with more pcores", cfgName, prev, d.MeanP95MS)
			}
			prev = d.MeanP95MS
		}
	}
	// OC3 beats B2 at equal pcores.
	for _, pc := range p.PCoreSteps {
		b, _ := Fig12Find(data, "B2", pc)
		o, _ := Fig12Find(data, "OC3", pc)
		if o.MeanP95MS >= b.MeanP95MS {
			t.Errorf("pcores %d: OC3 P95 %v not below B2 %v", pc, o.MeanP95MS, b.MeanP95MS)
		}
		if o.AvgPowerW <= b.AvgPowerW {
			t.Errorf("pcores %d: OC3 power not above B2", pc)
		}
	}
}

func TestFig12HeadlineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 12 run in -short mode")
	}
	data, err := Fig12Data(context.Background(), DefaultFig12Params())
	if err != nil {
		t.Fatal(err)
	}
	b16, _ := Fig12Find(data, "B2", 16)
	o12, _ := Fig12Find(data, "OC3", 12)
	// Paper: OC3 with 12 pcores within 1% of B2 with 16; our
	// reproduction holds within 10%.
	ratio := o12.MeanP95MS / b16.MeanP95MS
	if ratio > 1.10 || ratio < 0.80 {
		t.Fatalf("OC3@12 / B2@16 = %v, want ≈1 (4 pcores freed)", ratio)
	}
}

func TestFig12PowerCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("full Figure 12 run in -short mode")
	}
	data, err := Fig12Data(context.Background(), DefaultFig12Params())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		cfg    string
		pcores int
		avg    float64
	}{
		{"B2", 12, 120}, {"B2", 16, 130}, {"OC3", 12, 160}, {"OC3", 16, 173},
	}
	for _, c := range cases {
		d, _ := Fig12Find(data, c.cfg, c.pcores)
		if d.AvgPowerW < c.avg*0.85 || d.AvgPowerW > c.avg*1.15 {
			t.Errorf("%s@%d avg power %v, paper %v (±15%%)", c.cfg, c.pcores, d.AvgPowerW, c.avg)
		}
		if d.P99PowerW < d.AvgPowerW {
			t.Errorf("%s@%d: P99 below average power", c.cfg, c.pcores)
		}
	}
}

func TestFig13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 13 scenarios in -short mode")
	}
	p := DefaultFig13Params()
	p.DurationS = 180
	cells, err := Fig13Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 30 {
		t.Fatalf("%d cells, want 30 (3 scenarios × 5 VMs × 2 configs)", len(cells))
	}
	for _, c := range cells {
		switch c.Config {
		case "B2-oversub":
			// Oversubscribing the baseline degrades performance.
			if c.Improvement > 0.02 {
				t.Errorf("%s %s#%d B2-oversub improved %v", c.Scenario, c.App, c.Instance, c.Improvement)
			}
		case "OC3-oversub":
			// Overclocking turns the degradation into a gain.
			if c.Improvement < 0 {
				t.Errorf("%s %s#%d OC3-oversub degraded %v", c.Scenario, c.App, c.Instance, c.Improvement)
			}
			if c.Improvement > 0.20 {
				t.Errorf("%s %s#%d OC3-oversub gain %v beyond paper range", c.Scenario, c.App, c.Instance, c.Improvement)
			}
		}
	}
	// SQL suffers the worst under plain oversubscription (latency-
	// sensitive apps degrade most).
	worstApp, worst := "", 1.0
	for _, c := range cells {
		if c.Config == "B2-oversub" && c.Improvement < worst {
			worst, worstApp = c.Improvement, c.App
		}
	}
	if worstApp != "SQL" {
		t.Errorf("worst-degraded app %s, want SQL", worstApp)
	}
}

func TestTableXScenarios(t *testing.T) {
	scs := TableX()
	if len(scs) != 3 {
		t.Fatalf("%d scenarios", len(scs))
	}
	for _, s := range scs {
		if s.VCores() != 20 {
			t.Errorf("%s: %d vcores, want 20", s.Name, s.VCores())
		}
	}
	if scs[0].TeraSort != 2 || scs[1].SPECJBB != 2 || scs[2].SQL != 2 {
		t.Fatal("scenario mixes disagree with Table X")
	}
}

func TestPackingDensityGain(t *testing.T) {
	trace := vm.DefaultTrace
	trace.ArrivalRatePerS = 0.012
	res, err := PackingData(context.Background(), Options{}, 24, trace, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~20% packing density improvement.
	if res.DensityGain < 0.15 || res.DensityGain > 0.30 {
		t.Fatalf("density gain %v, want ~0.20-0.25", res.DensityGain)
	}
	if res.OversubRejected >= res.BaselineRejected {
		t.Fatal("oversubscription did not reduce rejections")
	}
	if res.AtRisk != 0 {
		t.Fatalf("%d servers exceed overclocked capacity", res.AtRisk)
	}
}

func TestBuffersVirtualSellsMore(t *testing.T) {
	trace := vm.DefaultTrace
	trace.ArrivalRatePerS = 0.25
	trace.DurationS = 24 * 3600
	trace.MeanLifetimeS = 48 * 3600
	res, err := BuffersData(context.Background(), Options{}, 20, 2, 0.10, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualSellable <= res.StaticSellable {
		t.Fatalf("virtual buffer sells %d ≤ static %d", res.VirtualSellable, res.StaticSellable)
	}
	if res.StaticRecovered < 0.99 {
		t.Fatalf("static buffer recovered only %v", res.StaticRecovered)
	}
	if res.VirtualRecovered < 0.90 {
		t.Fatalf("virtual buffer recovered only %v", res.VirtualRecovered)
	}
	if res.Displaced == 0 {
		t.Fatal("no VMs displaced by the failure")
	}
}

func TestCapacityCrisisMitigation(t *testing.T) {
	trace := vm.DefaultTrace
	trace.Seed = 99
	trace.ArrivalRatePerS = 0.012
	trace.DurationS = 2 * 24 * 3600
	trace.MeanLifetimeS = 24 * 3600
	res, err := CapacityCrisisData(context.Background(), Options{}, 16, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.DemandVCores <= res.SupplyPCores {
		t.Fatal("trace does not create a capacity crisis")
	}
	if res.DeniedOC >= res.DeniedBaseline {
		t.Fatalf("overclocking-backed fleet denied %d ≥ baseline %d", res.DeniedOC, res.DeniedBaseline)
	}
}

func TestFig15AndTableXIRender(t *testing.T) {
	if testing.Short() {
		t.Skip("auto-scaler renders in -short mode")
	}
	ctx := context.Background()
	f15, err := Fig15Data(ctx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl := fig15Table(f15); len(tbl.Rows) != 5 {
		t.Fatalf("Figure 15 rows %d", len(tbl.Rows))
	}
	reg := telemetry.NewRegistry()
	res, err := TableXIData(ctx, Options{Tel: reg.Scope("table11")})
	if err != nil {
		t.Fatal(err)
	}
	if tbl := tableXITable(res); len(tbl.Rows) != 3 {
		t.Fatalf("Table XI rows %d", len(tbl.Rows))
	}
	if res.OCA.MaxVMs >= res.Baseline.MaxVMs {
		t.Errorf("OC-A max VMs %d not below baseline %d", res.OCA.MaxVMs, res.Baseline.MaxVMs)
	}

	// Each policy publishes into its own child scope, so counters are
	// not summed across the three policies and gauges are not just the
	// last policy's.
	snap := reg.Snapshot()
	if n, ok := snap.Scopes["table11"].Counters["scale_outs"]; ok {
		t.Errorf("experiment scope carries scale_outs = %d; want it only per policy", n)
	}
	for _, r := range []*autoscaler.Result{res.Baseline, res.OCE, res.OCA} {
		sc, ok := snap.Scopes["table11/"+r.Policy.String()]
		if !ok {
			t.Fatalf("no telemetry scope for %s", r.Policy)
		}
		if got := sc.Counters["scale_outs"]; got != uint64(r.ScaleOuts) {
			t.Errorf("%s: scale_outs = %d, Result.ScaleOuts = %d", r.Policy, got, r.ScaleOuts)
		}
	}
}

// TestFleetHarnessesHonorSeed: Options.Seed reseeds the packing,
// buffers and capacity traces, and the zero Options keeps each
// harness's calibrated trace seed.
func TestFleetHarnessesHonorSeed(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed uint64 // the calibrated trace seed
	}{
		{"packing", vm.DefaultTrace.Seed},
		{"buffers", vm.DefaultTrace.Seed},
		{"capacity", 99},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ok := Lookup(tc.name)
			if !ok {
				t.Fatalf("%s not registered", tc.name)
			}
			text := func(o Options) string {
				r, err := e.Run(context.Background(), o)
				if err != nil {
					t.Fatal(err)
				}
				return r.Text()
			}
			def := text(Options{})
			if got := text(Options{Seed: tc.seed}); got != def {
				t.Fatalf("zero Options differs from the calibrated seed %d:\n%s\nvs\n%s", tc.seed, def, got)
			}
			if got := text(Options{Seed: 13}); got == def {
				t.Fatalf("Options{Seed: 13} left the table unchanged:\n%s", got)
			}
		})
	}
}

// TestSimExperimentsHonorCancelledContext: every sim-tagged experiment
// run under an already-cancelled context returns an error wrapping
// context.Canceled instead of a table.
func TestSimExperimentsHonorCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	exps := WithTag("sim")
	if len(exps) == 0 {
		t.Fatal("no sim-tagged experiments")
	}
	for _, e := range exps {
		t.Run(e.Name, func(t *testing.T) {
			r, err := e.Run(ctx, Options{})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v (result %q), want context.Canceled", err, r.Text())
			}
		})
	}
}
