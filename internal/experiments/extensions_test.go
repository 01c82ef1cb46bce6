package experiments

import (
	"context"
	"testing"
)

func TestCappingExperiment(t *testing.T) {
	res, err := CappingData(0.06)
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetW >= res.DemandW {
		t.Fatal("no breach in the capping scenario")
	}
	// Priority-aware capping spares critical entirely under a 6%
	// breach; uniform capping does not.
	if res.Priority["critical-latency"].PerfImpact != 0 {
		t.Fatalf("priority capper hit critical: %+v", res.Priority["critical-latency"])
	}
	if res.Uniform["critical-latency"].PerfImpact <= 0 {
		t.Fatal("uniform capper spared critical")
	}
	// Harvest absorbs the most under priority capping.
	if res.Priority["harvest"].PerfImpact <= res.Priority["batch"].PerfImpact {
		t.Fatal("harvest did not absorb more than batch")
	}
	if _, err := Capping(); err != nil {
		t.Fatal(err)
	}
}

func TestTankExperiment(t *testing.T) {
	rows, budget, err := TankData()
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 || budget >= 36 {
		t.Fatalf("overclock budget %d, want a real subset of 36", budget)
	}
	if len(rows) != 7 {
		t.Fatalf("%d sweep rows", len(rows))
	}
	// Bath, Tj monotone in overclocked count; lifetime monotone down.
	for i := 1; i < len(rows); i++ {
		if rows[i].BathC < rows[i-1].BathC {
			t.Fatal("bath not monotone")
		}
		if rows[i].TjOverclockedC < rows[i-1].TjOverclockedC {
			t.Fatal("Tj not monotone")
		}
		if rows[i].LifetimeYears > rows[i-1].LifetimeYears+1e-9 {
			t.Fatal("lifetime not monotone down")
		}
	}
	// The budget boundary shows up in the sweep: 36 OC servers are
	// out of budget, 0 are in.
	if !rows[0].WithinBudget {
		t.Fatal("nominal tank out of budget")
	}
	if rows[len(rows)-1].WithinBudget {
		t.Fatal("fully overclocked tank within budget")
	}
	if _, err := TankEnvelope(); err != nil {
		t.Fatal(err)
	}
}

func TestAblationBEC(t *testing.T) {
	rows, err := AblationBECData()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	coated, bare := rows[0], rows[1]
	if !coated.BEC || bare.BEC {
		t.Fatal("row order unexpected")
	}
	if coated.TjOverclockC >= bare.TjOverclockC {
		t.Fatal("coating did not lower overclocked Tj")
	}
	if coated.LifetimeOC <= bare.LifetimeOC {
		t.Fatal("coating did not extend lifetime")
	}
	if coated.MaxPowerW != 2*bare.MaxPowerW {
		t.Fatalf("coating CHF gain %v/%v, want 2×", coated.MaxPowerW, bare.MaxPowerW)
	}
}

func TestAblationBursts(t *testing.T) {
	if testing.Short() {
		t.Skip("burst ablation in -short mode")
	}
	res, err := AblationBurstsData(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Correlated bursts must be substantially worse than independent
	// ones on the oversubscribed host — this is the mechanism behind
	// Figure 12/13.
	if res.Penalty < 2 {
		t.Fatalf("correlation penalty %v, want ≥2×", res.Penalty)
	}
}

func TestAblationEq1(t *testing.T) {
	if testing.Short() {
		t.Skip("Eq1 ablation in -short mode")
	}
	res, err := AblationEq1Data(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The model must save power versus the naive jump-to-max
	// controller on a moderate oscillating load.
	if res.Model.AvgVMPowerW >= res.Naive.AvgVMPowerW {
		t.Fatalf("model power %v not below naive %v", res.Model.AvgVMPowerW, res.Naive.AvgVMPowerW)
	}
	// And not at a catastrophic latency cost.
	if res.Model.P95LatencyS > res.Naive.P95LatencyS*1.25 {
		t.Fatalf("model P95 %v vs naive %v", res.Model.P95LatencyS, res.Naive.P95LatencyS)
	}
}

func TestPolicyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("five-policy comparison in -short mode")
	}
	results, err := PolicyComparisonData(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d policies", len(results))
	}
	base, oca, pred, predOCA := results[0], results[2], results[3], results[4]
	// Predictive beats the baseline on latency but spends capacity.
	if pred.P95LatencyS >= base.P95LatencyS {
		t.Fatal("predictive did not improve latency")
	}
	if pred.VMHours <= base.VMHours {
		t.Fatal("predictive did not spend extra capacity")
	}
	// OC-A achieves its latency with FEWER VM-hours than predictive —
	// the paper's core argument for overclocking vs capacity.
	if oca.VMHours >= pred.VMHours {
		t.Fatal("OC-A not cheaper in capacity than predictive")
	}
	// The combination is the latency winner.
	if predOCA.P95LatencyS >= base.P95LatencyS {
		t.Fatal("Pred+OC-A did not improve latency")
	}
}

func TestHighPerfOffering(t *testing.T) {
	rows, airDenied, err := HighPerfData()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Granted {
			t.Errorf("%s: offering denied on the immersed server", r.App)
			continue
		}
		if r.Improvement < 0.10 {
			t.Errorf("%s: guaranteed gain %v below 10%%", r.App, r.Improvement)
		}
		if r.LifetimeYears < 5 {
			t.Errorf("%s: lifetime %v below service life", r.App, r.LifetimeYears)
		}
	}
	if airDenied != len(rows) {
		t.Fatalf("air twin denied %d of %d; overclocked VMs must need 2PIC", airDenied, len(rows))
	}
	if _, err := HighPerf(); err != nil {
		t.Fatal(err)
	}
}

func TestWearBudgetDutyCycles(t *testing.T) {
	rows, err := WearBudgetData()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]WearBudgetRow{}
	for _, r := range rows {
		byName[r.Cooling] = r
	}
	// Air cannot afford any sustained overclocking; HFE-7000 can
	// overclock full-time; FC-3284 lands in between (Table V).
	if byName["Air cooling"].DutyCycle != 0 {
		t.Fatalf("air duty cycle %v, want 0", byName["Air cooling"].DutyCycle)
	}
	if byName["HFE-7000"].DutyCycle != 1 {
		t.Fatalf("HFE duty cycle %v, want 1", byName["HFE-7000"].DutyCycle)
	}
	fc := byName["FC-3284"].DutyCycle
	if fc <= 0.4 || fc >= 0.9 {
		t.Fatalf("FC-3284 duty cycle %v, want interior", fc)
	}
	if _, err := WearBudget(); err != nil {
		t.Fatal(err)
	}
}

func TestCoolingComparison(t *testing.T) {
	rows, err := CoolingComparisonData(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string]CoolingRow{}
	for _, r := range rows {
		byName[r.Tech] = r
	}
	if byName["Air (direct evaporative)"].OCDutyCycle != 0 {
		t.Fatal("air sustains overclocking")
	}
	if !byName["2PIC HFE-7000"].SustainedOCOK {
		t.Fatal("HFE-7000 does not sustain the overclock")
	}
	if byName["1PIC"].OCDutyCycle >= byName["2PIC FC-3284"].OCDutyCycle {
		t.Fatal("1PIC duty cycle not below 2PIC FC-3284")
	}
	if tbl := coolingComparisonTable(rows); len(tbl.Rows) != 5 {
		t.Fatalf("cooling table rows %d", len(tbl.Rows))
	}
}

func TestDiurnal(t *testing.T) {
	if testing.Short() {
		t.Skip("diurnal day in -short mode")
	}
	res, err := DiurnalData(context.Background(), Options{DurationS: 1800})
	if err != nil {
		t.Fatal(err)
	}
	base, oca := res.Results[0], res.Results[2]
	if oca.VMHours >= base.VMHours {
		t.Fatalf("OC-A VM-hours %v not below baseline %v over a diurnal day", oca.VMHours, base.VMHours)
	}
	if oca.P95LatencyS >= base.P95LatencyS {
		t.Fatal("OC-A P95 not below baseline over a diurnal day")
	}
	if base.EnergyPerReqJ <= 0 {
		t.Fatal("energy per request not computed")
	}
	if tbl := diurnalTable(res); len(tbl.Rows) != 3 {
		t.Fatalf("diurnal table rows %d", len(tbl.Rows))
	}
}

func TestFleetSim(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet integration in -short mode")
	}
	tbl, err := fleetSim(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
}

func TestMigrationStopGap(t *testing.T) {
	stages, err := MigrationData()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) < 2 {
		t.Fatalf("%d stages", len(stages))
	}
	first, last := stages[0], stages[len(stages)-1]
	if !first.Overclocked || first.NeededSpeedup <= 1 {
		t.Fatalf("initial state not overclock-mitigated: %+v", first)
	}
	if first.OversubscribedSrv == 0 {
		t.Fatal("initial state not oversubscribed")
	}
	if last.Overclocked || last.OversubscribedSrv != 0 {
		t.Fatalf("migration did not clear the oversubscription: %+v", last)
	}
	totalMoves := 0
	for _, s := range stages {
		totalMoves += s.Moves
	}
	if totalMoves == 0 {
		t.Fatal("no VMs migrated")
	}
	if _, err := Migration(); err != nil {
		t.Fatal(err)
	}
}
