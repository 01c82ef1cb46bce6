package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/autoscaler"
	"immersionoc/internal/power"
	"immersionoc/internal/queueing"
	"immersionoc/internal/reliability"
	"immersionoc/internal/sweep"
	"immersionoc/internal/thermal"
)

// This file holds the ablations for the design choices DESIGN.md calls
// out: the Equation 1 utilization model, the boiling enhancement
// coating, burst correlation in the oversubscription workload, and the
// auto-scaler policy space extended with predictive variants.

// AblationEq1Result compares OC-A with the Equation 1 model against a
// naive controller that always jumps to the maximum frequency.
type AblationEq1Result struct {
	Model, Naive *autoscaler.Result
}

// AblationEq1Data runs both controllers on an oscillating moderate
// load where intermediate ladder rungs suffice, so the model's
// minimum-frequency selection can actually save power. The zero
// Options reproduces the published run (seed 5). The two controller
// runs are independent, so they fan out through sweep.Map under
// o.Workers; a cancelled context stops the in-flight controller
// simulation at the kernel's next event batch.
func AblationEq1Data(ctx context.Context, o Options) (AblationEq1Result, error) {
	phases := []queueing.LoadPhase{
		{QPS: 1000, DurationS: 240},
		{QPS: 1700, DurationS: 300},
		{QPS: 1100, DurationS: 240},
		{QPS: 1800, DurationS: 300},
		{QPS: 1000, DurationS: 240},
	}
	variants := []struct {
		name  string
		naive bool
	}{{"model", false}, {"naive", true}}
	results, err := sweep.Map(ctx, len(variants), sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (*autoscaler.Result, error) {
			cfg := autoscaler.DefaultConfig(autoscaler.OCA, phases)
			cfg.Seed = o.SeedOr(5)
			cfg.InitialVMs = 3
			cfg.MinVMs = 3
			cfg.DisableScaleOut = true
			cfg.NaiveScaleUp = variants[i].naive
			cfg.Tel = o.Tel.Child(variants[i].name)
			return autoscaler.RunCtx(ctx, cfg)
		})
	if err != nil {
		return AblationEq1Result{}, err
	}
	return AblationEq1Result{Model: results[0], Naive: results[1]}, nil
}

// ablationEq1Table renders the two controllers.
func ablationEq1Table(res AblationEq1Result) *Table {
	t := &Table{
		Title:  "Ablation — Equation 1 model vs naive jump-to-max scale-up (3 VMs, oscillating load)",
		Header: []string{"Controller", "P95 latency", "Avg VM power", "Scale-ups"},
		Notes: []string{
			"the model picks the minimum ladder rung that meets the utilization target;",
			"jumping straight to max burns power for little additional latency benefit",
		},
	}
	row := func(name string, r *autoscaler.Result) {
		t.AddRow(name, fmt.Sprintf("%.2f ms", r.P95LatencyS*1000),
			fmt.Sprintf("%.1f W", r.AvgVMPowerW), fmt.Sprintf("%d", r.ScaleUps))
	}
	row("Equation 1", res.Model)
	row("naive max", res.Naive)
	t.Notes = append(t.Notes, fmt.Sprintf("model saves %.1f%% VM power at %.1f%% P95 cost",
		(1-res.Model.AvgVMPowerW/res.Naive.AvgVMPowerW)*100,
		(res.Model.P95LatencyS/res.Naive.P95LatencyS-1)*100))
	return t
}

// BECAblationRow captures one coating configuration.
type BECAblationRow struct {
	BEC          bool
	TjNominalC   float64
	TjOverclockC float64
	LifetimeOC   float64
	MaxPowerW    float64
}

// AblationBECData evaluates the FC-3284 Xeon boiler with and without
// the L-20227 boiling enhancement coating: junction temperatures at
// 205/305 W, overclocked lifetime, and the dryout limit.
func AblationBECData() ([]BECAblationRow, error) {
	var rows []BECAblationRow
	for _, bec := range []bool{true, false} {
		boiler := thermal.XeonTableV.Immersion.(thermal.ImmersionModel).Boiler
		boiler.BEC = bec
		m := thermal.ImmersionModel{Boiler: boiler}
		nom, err := m.JunctionTemp(power.NominalSocketW)
		if err != nil {
			return nil, err
		}
		oc, err := m.JunctionTemp(power.OverclockedSocketW)
		if err != nil {
			return nil, err
		}
		life, err := reliability.Composite5nm.Lifetime(reliability.Condition{
			VoltageV: power.OverclockedVoltage,
			TjMaxC:   oc,
			TjMinC:   m.IdleTemp(),
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BECAblationRow{
			BEC:          bec,
			TjNominalC:   nom,
			TjOverclockC: oc,
			LifetimeOC:   life,
			MaxPowerW:    boiler.MaxPower(),
		})
	}
	return rows, nil
}

// AblationBEC renders the coating ablation.
func AblationBEC() (*Table, error) {
	rows, err := AblationBECData()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Ablation — boiling enhancement coating (FC-3284 Xeon boiler)",
		Header: []string{"BEC", "Tj @205W", "Tj @305W", "OC lifetime", "Dryout limit"},
		Notes:  []string{"the paper: L-20227 BEC improves boiling performance 2× over smooth surfaces"},
	}
	for _, r := range rows {
		label := "uncoated"
		if r.BEC {
			label = "L-20227"
		}
		t.AddRow(label, fmt.Sprintf("%.1f°C", r.TjNominalC), fmt.Sprintf("%.1f°C", r.TjOverclockC),
			fmt.Sprintf("%.1f years", r.LifetimeOC), fmt.Sprintf("%.0f W", r.MaxPowerW))
	}
	return t, nil
}

// AblationBurstsResult compares correlated and independent VM bursts
// in the Figure 12 oversubscription experiment.
type AblationBurstsResult struct {
	CorrelatedP95MS, IndependentP95MS float64
	// Penalty is the correlated/independent P95 ratio at 12 pcores
	// under B2 — how much of the oversubscription pain is burst
	// alignment.
	Penalty float64
}

// AblationBurstsData runs the 12-pcore B2 oversubscription point with
// shared and per-VM burst schedules. The correlated and independent
// variants fan out through sweep.Map; each variant is itself a Fig12
// sweep, exercising nested fan-out under the shared worker budget (the
// outer cells lend their slots while blocked on the inner grids). A
// cancelled context stops the in-flight oversubscription run at the
// kernel's next event batch.
func AblationBurstsData(ctx context.Context, o Options) (AblationBurstsResult, error) {
	base := DefaultFig12Params()
	base.DurationS = 300
	base.PCoreSteps = []int{12}
	base = base.withOptions(o)

	variants := []struct {
		name        string
		independent bool
	}{{"correlated", false}, {"independent", true}}
	grids, err := sweep.Map(ctx, len(variants), sweep.Options{Workers: base.Workers, Tel: base.Tel},
		func(ctx context.Context, i int) ([]Fig12Point, error) {
			p := base
			p.IndependentBursts = variants[i].independent
			p.Tel = base.Tel.Child(variants[i].name)
			return Fig12Data(ctx, p)
		})
	if err != nil {
		return AblationBurstsResult{}, err
	}

	c, _ := Fig12Find(grids[0], "B2", 12)
	i, _ := Fig12Find(grids[1], "B2", 12)
	res := AblationBurstsResult{CorrelatedP95MS: c.MeanP95MS, IndependentP95MS: i.MeanP95MS}
	if i.MeanP95MS > 0 {
		res.Penalty = c.MeanP95MS / i.MeanP95MS
	}
	return res, nil
}

// ablationBurstsTable renders the correlation comparison.
func ablationBurstsTable(res AblationBurstsResult) *Table {
	t := &Table{
		Title:  "Ablation — burst correlation across co-located VMs (B2, 12 pcores, 16 vcores)",
		Header: []string{"Burst schedules", "Mean P95"},
		Notes: []string{
			"oversubscription gambles that co-located VMs do not need the same cores at the",
			"same time; correlated bursts are the losing side of that bet",
		},
	}
	t.AddRow("correlated (shared driver)", fmt.Sprintf("%.1f ms", res.CorrelatedP95MS))
	t.AddRow("independent", fmt.Sprintf("%.1f ms", res.IndependentP95MS))
	t.Notes = append(t.Notes, fmt.Sprintf("correlation penalty: %.1fx", res.Penalty))
	return t
}

// PolicyComparisonData runs all five auto-scaler policies (the paper's
// three plus the predictive extensions) over the Table XI ramp. The
// zero Options reproduces the published run (seed 3). The five policy
// runs fan out through sweep.Map under o.Workers; the paper's three
// are the same o.Memo cells TableXIData runs, so in one runner.Run
// they are simulated once. A cancelled context stops the in-flight
// policy simulations at the kernel's next event batch.
func PolicyComparisonData(ctx context.Context, o Options) ([]*autoscaler.Result, error) {
	return rampRuns(ctx, o, []autoscaler.Policy{
		autoscaler.Baseline, autoscaler.OCE, autoscaler.OCA,
		autoscaler.Predictive, autoscaler.PredictiveOCA,
	})
}

// policyComparisonTable renders the five policies.
func policyComparisonTable(results []*autoscaler.Result) *Table {
	base := results[0]
	t := &Table{
		Title:  "Extension — auto-scaler policy space (paper's three + predictive variants)",
		Header: []string{"Policy", "Norm P95", "Norm Avg", "Max VMs", "VM×hours", "VM power vs base"},
		Notes: []string{
			"Predictive buys latency with capacity (earlier VMs); OC-A buys it with power;",
			"Pred+OC-A combines the trend trigger with overclock-first",
		},
	}
	for _, r := range results {
		t.AddRow(r.Policy.String(),
			F(r.P95LatencyS/base.P95LatencyS, 2),
			F(r.AvgLatencyS/base.AvgLatencyS, 2),
			fmt.Sprintf("%d", r.MaxVMs),
			F(r.VMHours, 2),
			Pct(r.AvgVMPowerW/base.AvgVMPowerW-1))
	}
	return t
}

func init() {
	registerData("ablation-eq1", 220, []string{"ablation", "sim"}, AblationEq1Data, ablationEq1Table)
	registerTable("ablation-bec", 230, []string{"ablation", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return AblationBEC() })
	registerData("ablation-bursts", 240, []string{"ablation", "sim"}, AblationBurstsData, ablationBurstsTable)
	registerData("policies", 250, []string{"extension", "sim"}, PolicyComparisonData, policyComparisonTable)
}
