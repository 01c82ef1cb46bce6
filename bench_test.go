// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment harness
// and reports the headline quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation and prints the measured values next
// to the timing. Calibration against the paper's numbers is asserted
// by the unit tests in internal/...; the benchmarks measure the cost
// of regenerating each artifact.
package immersionoc_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/experiments"
	"immersionoc/internal/runner"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// BenchmarkRunnerAll regenerates the full table evaluation through the
// experiment runner, serially and with a GOMAXPROCS-wide worker pool.
// On a multi-core machine the parallel case amortizes the serial sum
// (the report's "serial cost") down to roughly the slowest experiment.
// The telemetry-on/telemetry-off pair measures the collection overhead
// on identical serial runs; the budget is < 2%.
func BenchmarkRunnerAll(b *testing.B) {
	exps := experiments.Tables()
	if len(exps) == 0 {
		b.Fatal("empty registry")
	}
	for _, bc := range []struct {
		name    string
		workers int
		metrics *telemetry.Registry
	}{
		{"serial", 1, nil},
		{"parallel", runtime.GOMAXPROCS(0), nil},
		{"telemetry-on", 1, telemetry.NewRegistry()},
		{"telemetry-off", 1, telemetry.Off},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runner.Run(context.Background(), exps, runner.Config{Workers: bc.workers, Metrics: bc.metrics})
				if failed := r.Failed(); len(failed) > 0 {
					b.Fatalf("%s: %v", failed[0].Name, failed[0].Err)
				}
			}
		})
	}
}

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableI(); len(tbl.Rows) != 6 {
			b.Fatal("bad Table I")
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.TableII(); len(tbl.Rows) != 4 {
			b.Fatal("bad Table II")
		}
	}
}

func BenchmarkTableIII(b *testing.B) {
	var tj float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIIIData()
		if err != nil {
			b.Fatal(err)
		}
		tj = rows[1].TjC
	}
	b.ReportMetric(tj, "2PIC-Tj-°C")
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.Fig4(); len(tbl.Rows) != 5 {
			b.Fatal("bad Fig 4")
		}
	}
}

func BenchmarkTableV(b *testing.B) {
	var ocLife float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableVData()
		if err != nil {
			b.Fatal(err)
		}
		ocLife = rows[5].Lifetime // HFE-7000 overclocked
	}
	b.ReportMetric(ocLife, "HFE-OC-lifetime-years")
}

func BenchmarkPowerSavings(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		sb, _, err := experiments.PowerSavings()
		if err != nil {
			b.Fatal(err)
		}
		total = sb.Total()
	}
	b.ReportMetric(total, "savings-W")
}

func BenchmarkStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.StabilityReport(); len(tbl.Rows) != 3 {
			b.Fatal("bad stability report")
		}
	}
}

func BenchmarkTableVI(b *testing.B) {
	var nonOC float64
	for i := 0; i < b.N; i++ {
		_, _, n, _, err := experiments.TableVIData()
		if err != nil {
			b.Fatal(err)
		}
		nonOC = n.Total()
	}
	b.ReportMetric((nonOC-1)*100, "nonOC-TCO-delta-%")
}

func BenchmarkTCOOversub(b *testing.B) {
	var vsAir float64
	for i := 0; i < b.N; i++ {
		_, ocS, _, err := experiments.OversubTCO()
		if err != nil {
			b.Fatal(err)
		}
		vsAir = ocS.VsAir
	}
	b.ReportMetric(vsAir*100, "vcore-saving-%")
}

func BenchmarkFig9(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		cells, err := experiments.Fig9Data(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Improvement > best {
				best = c.Improvement
			}
		}
	}
	b.ReportMetric(best*100, "best-improvement-%")
}

func BenchmarkFig10(b *testing.B) {
	var oc3 float64
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Fig10Data() {
			if c.Config == "OC3" && c.Kernel == "triad" {
				oc3 = c.VsB1
			}
		}
	}
	b.ReportMetric(oc3*100, "triad-OC3-gain-%")
}

func BenchmarkFig11(b *testing.B) {
	var p99 float64
	for i := 0; i < b.N; i++ {
		for _, c := range experiments.Fig11Data() {
			if c.Config == "OCG3" && c.Model == "VGG16" {
				p99 = c.P99PowerW
			}
		}
	}
	b.ReportMetric(p99, "OCG3-P99-W")
}

func BenchmarkFig12(b *testing.B) {
	p := experiments.DefaultFig12Params()
	p.DurationS = 150
	p.PCoreSteps = []int{12, 16}
	var ratio float64
	for i := 0; i < b.N; i++ {
		data, err := experiments.Fig12Data(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		b16, _ := experiments.Fig12Find(data, "B2", 16)
		o12, _ := experiments.Fig12Find(data, "OC3", 12)
		ratio = o12.MeanP95MS / b16.MeanP95MS
	}
	b.ReportMetric(ratio, "OC3@12/B2@16-P95")
}

// BenchmarkSweepFig12 measures the intra-experiment sweep engine on
// the Figure 12 grid (10 cells at 120 simulated seconds): the serial
// case is the workers≤1 fast path — the plain loop the sweep replaced,
// whose cost must stay within noise of the pre-sweep code — and the
// parallel case fans the cells out GOMAXPROCS-wide under the shared
// budget. On a multi-core machine the parallel case approaches
// serial/cores; on a 1-CPU container the two are equal.
func BenchmarkSweepFig12(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := experiments.DefaultFig12Params()
			p.DurationS = 120
			p.Workers = bc.workers
			var ratio float64
			for i := 0; i < b.N; i++ {
				data, err := experiments.Fig12Data(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				b16, _ := experiments.Fig12Find(data, "B2", 16)
				o12, _ := experiments.Fig12Find(data, "OC3", 12)
				ratio = o12.MeanP95MS / b16.MeanP95MS
			}
			b.ReportMetric(ratio, "OC3@12/B2@16-P95")
		})
	}
}

func BenchmarkFig13(b *testing.B) {
	p := experiments.DefaultFig13Params()
	p.DurationS = 120
	var best float64
	for i := 0; i < b.N; i++ {
		best = 0
		cells, err := experiments.Fig13Data(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Config == "OC3-oversub" && c.Improvement > best {
				best = c.Improvement
			}
		}
	}
	b.ReportMetric(best*100, "best-OC3-gain-%")
}

func BenchmarkFig15(b *testing.B) {
	var freqAt3000 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15Data(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		freqAt3000 = res.WithModel.FreqFrac.At(1110)
	}
	b.ReportMetric(freqAt3000*100, "freq-at-3000QPS-%")
}

func BenchmarkTableXI(b *testing.B) {
	var ocaVMh float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableXIData(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ocaVMh = res.OCA.VMHours
	}
	b.ReportMetric(ocaVMh, "OC-A-VM-hours")
}

func BenchmarkFig16(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableXIData(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		peak = res.Baseline.Util.Max()
	}
	b.ReportMetric(peak*100, "baseline-peak-util-%")
}

func BenchmarkPacking(b *testing.B) {
	trace := vm.DefaultTrace
	trace.ArrivalRatePerS = 0.012
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.PackingData(context.Background(), experiments.Options{}, 24, trace, 0.25)
		if err != nil {
			b.Fatal(err)
		}
		gain = res.DensityGain
	}
	b.ReportMetric(gain*100, "density-gain-%")
}

func BenchmarkBuffers(b *testing.B) {
	trace := vm.DefaultTrace
	trace.ArrivalRatePerS = 0.25
	trace.DurationS = 24 * 3600
	trace.MeanLifetimeS = 48 * 3600
	var extra float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BuffersData(context.Background(), experiments.Options{}, 20, 2, 0.10, trace)
		if err != nil {
			b.Fatal(err)
		}
		extra = float64(res.VirtualSellable - res.StaticSellable)
	}
	b.ReportMetric(extra, "extra-sellable-vcores")
}

func BenchmarkCapacityCrisis(b *testing.B) {
	trace := vm.DefaultTrace
	trace.Seed = 99
	trace.ArrivalRatePerS = 0.012
	trace.DurationS = 2 * 24 * 3600
	trace.MeanLifetimeS = 24 * 3600
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CapacityCrisisData(context.Background(), experiments.Options{}, 16, trace)
		if err != nil {
			b.Fatal(err)
		}
		saved = float64(res.DeniedBaseline - res.DeniedOC)
	}
	b.ReportMetric(saved, "denials-avoided")
}

func BenchmarkCapping(b *testing.B) {
	var kept float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.CappingData(0.06)
		if err != nil {
			b.Fatal(err)
		}
		kept = res.Priority["critical-latency"].FreqGHz
	}
	b.ReportMetric(kept, "critical-freq-GHz")
}

func BenchmarkTankEnvelope(b *testing.B) {
	var budget float64
	for i := 0; i < b.N; i++ {
		_, n, err := experiments.TankData()
		if err != nil {
			b.Fatal(err)
		}
		budget = float64(n)
	}
	b.ReportMetric(budget, "tank-OC-budget-servers")
}

func BenchmarkHighPerf(b *testing.B) {
	var denied float64
	for i := 0; i < b.N; i++ {
		_, airDenied, err := experiments.HighPerfData()
		if err != nil {
			b.Fatal(err)
		}
		denied = float64(airDenied)
	}
	b.ReportMetric(denied, "air-denied-of-8")
}

func BenchmarkWearBudget(b *testing.B) {
	var fc float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.WearBudgetData()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Cooling == "FC-3284" {
				fc = r.DutyCycle
			}
		}
	}
	b.ReportMetric(fc*100, "FC-duty-cycle-%")
}

func BenchmarkAblationBEC(b *testing.B) {
	var dTj float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationBECData()
		if err != nil {
			b.Fatal(err)
		}
		dTj = rows[1].TjOverclockC - rows[0].TjOverclockC
	}
	b.ReportMetric(dTj, "BEC-Tj-saving-°C")
}

func BenchmarkAblationBursts(b *testing.B) {
	var penalty float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationBurstsData(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		penalty = res.Penalty
	}
	b.ReportMetric(penalty, "correlation-penalty-x")
}

func BenchmarkAblationEq1(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationEq1Data(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - res.Model.AvgVMPowerW/res.Naive.AvgVMPowerW
	}
	b.ReportMetric(saving*100, "Eq1-power-saving-%")
}

func BenchmarkPolicyComparison(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.PolicyComparisonData(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		base := results[0]
		best = 1
		for _, r := range results {
			if v := r.P95LatencyS / base.P95LatencyS; v < best {
				best = v
			}
		}
	}
	b.ReportMetric(best, "best-norm-P95")
}

func BenchmarkCoolingComparison(b *testing.B) {
	var fcDuty float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CoolingComparisonData(context.Background(), experiments.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Tech == "2PIC FC-3284" {
				fcDuty = r.OCDutyCycle
			}
		}
	}
	b.ReportMetric(fcDuty*100, "FC-OC-duty-%")
}

func BenchmarkDiurnal(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DiurnalData(context.Background(), experiments.Options{DurationS: 1800})
		if err != nil {
			b.Fatal(err)
		}
		saved = res.Results[0].VMHours - res.Results[2].VMHours
	}
	b.ReportMetric(saved, "OC-A-VMh-saved")
}

func BenchmarkFleetSim(b *testing.B) {
	cfg := dcsim.DefaultConfig()
	cfg.Trace.DurationS = 24 * 3600
	var ocHours float64
	for i := 0; i < b.N; i++ {
		rep, err := dcsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ocHours = rep.OverclockServerHours
	}
	b.ReportMetric(ocHours, "OC-server-hours")
}

// BenchmarkFleetHyperScale is the sharding tentpole's scale point:
// 100,000 servers across 8,334 tanks absorbing a 1,000,000-VM arrival
// wave (≈250k concurrent at steady state), stepped across 8 shards
// drawn from the shared sweep budget. The reported ms/step is the
// wall-clock cost of one control step at hyperscale; the target is
// <1 s/step on a multicore host. KPIs are byte-stable at any shard
// count, so the OC-server-hours metric doubles as a determinism probe
// against BENCH history.
func BenchmarkFleetHyperScale(b *testing.B) {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = 100_000
	cfg.ServersPerTank = 12
	cfg.FeederBudgetW = 34_700_000
	cfg.Shards = 8
	cfg.Trace.DurationS = 4 * 3600
	cfg.Trace.ArrivalRatePerS = 1_000_000.0 / (4 * 3600)
	cfg.Trace.MeanLifetimeS = 3600
	steps := cfg.Trace.DurationS / cfg.StepS
	var ocHours float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rep, err := dcsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ocHours = rep.OverclockServerHours
	}
	b.ReportMetric(float64(time.Since(start).Milliseconds())/(float64(b.N)*steps), "ms/step")
	b.ReportMetric(ocHours, "OC-server-hours")
}

// BenchmarkFleetScale is the production-scale point of the fleet
// control plane: 1,000 servers across 84 tanks replaying a ~10,000-VM
// day-long trace under a row feeder budget. It exists to keep the
// dcsim control step O(changed state) — at this size any per-step
// full-fleet recompute (demand, row power, hazard rates) dominates the
// run and shows up here first.
func BenchmarkFleetScale(b *testing.B) {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = 1000
	cfg.ServersPerTank = 12
	cfg.FeederBudgetW = 347000
	cfg.Trace.DurationS = 24 * 3600
	cfg.Trace.ArrivalRatePerS = 10000.0 / (24 * 3600)
	cfg.Trace.MeanLifetimeS = 10 * 3600
	var ocHours float64
	for i := 0; i < b.N; i++ {
		rep, err := dcsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ocHours = rep.OverclockServerHours
	}
	b.ReportMetric(ocHours, "OC-server-hours")
}
