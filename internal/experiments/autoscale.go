package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/autoscaler"
	"immersionoc/internal/queueing"
	"immersionoc/internal/sweep"
)

// Fig15Result carries the model-validation run (scale-up/down only).
type Fig15Result struct {
	WithModel *autoscaler.Result
	Baseline  *autoscaler.Result
}

// Fig15Data runs the Equation 1 validation: three fixed VMs, the load
// stepping 1000→2000→500→3000→1000 QPS, frequency control on, versus
// a baseline that never changes frequency. The zero Options reproduces
// the published run (seed 3). A cancelled context stops the in-flight
// simulation at the kernel's next event batch.
func Fig15Data(ctx context.Context, o Options) (Fig15Result, error) {
	phases := autoscaler.ValidationPhases()

	mk := func(policy autoscaler.Policy) autoscaler.Config {
		cfg := autoscaler.DefaultConfig(policy, phases)
		cfg.Seed = o.SeedOr(3)
		cfg.InitialVMs = 3
		cfg.MinVMs = 3
		cfg.DisableScaleOut = true
		cfg.Tel = o.Tel
		return cfg
	}
	withModel, err := autoscaler.RunCtx(ctx, mk(autoscaler.OCA))
	if err != nil {
		return Fig15Result{}, err
	}
	baseline, err := autoscaler.RunCtx(ctx, mk(autoscaler.Baseline))
	if err != nil {
		return Fig15Result{}, err
	}
	return Fig15Result{WithModel: withModel, Baseline: baseline}, nil
}

// fig15Table renders the validation run.
func fig15Table(res Fig15Result) *Table {
	t := &Table{
		Title:  "Figure 15 — Model validation: utilization and frequency under load steps (3 VMs)",
		Header: []string{"t (s)", "QPS", "Util (model)", "Freq (% of range)", "Util (baseline)"},
		Notes: []string{
			"paper: each frequency increase lowers utilization; at 3000 QPS even max frequency",
			"leaves utilization above the 50% scale-out threshold",
		},
	}
	qs := []float64{1000, 2000, 500, 3000, 1000}
	for i, q := range qs {
		// Sample mid-phase (steady state for that load level).
		mid := float64(i)*300 + 210
		t.AddRow(
			fmt.Sprintf("%.0f", mid),
			fmt.Sprintf("%.0f", q),
			F(res.WithModel.Util.At(mid), 3),
			fmt.Sprintf("%.0f%%", res.WithModel.FreqFrac.At(mid)*100),
			F(res.Baseline.Util.At(mid), 3),
		)
	}
	return t
}

// TableXIResult is the full auto-scaler comparison.
type TableXIResult struct {
	Baseline, OCE, OCA *autoscaler.Result
}

// TableXIData runs the three auto-scaler policies over the 500→4000
// QPS ramp. The zero Options reproduces the published run (seed 3).
// The policies fan out through sweep.Map under o.Workers, each
// publishing into its own child scope of o.Tel, and each run is a cell
// of o.Memo, so fig16, table11 and policies in one runner.Run simulate
// each policy once. A cancelled context stops the in-flight policy
// simulations at the kernel's next event batch instead of finishing
// the ramp.
func TableXIData(ctx context.Context, o Options) (TableXIResult, error) {
	rs, err := rampRuns(ctx, o, []autoscaler.Policy{autoscaler.Baseline, autoscaler.OCE, autoscaler.OCA})
	if err != nil {
		return TableXIResult{}, err
	}
	return TableXIResult{Baseline: rs[0], OCE: rs[1], OCA: rs[2]}, nil
}

// rampSpec parameterizes autoscaler.RampPhases.
type rampSpec struct{ start, max, step, phaseS float64 }

// tableXIRamp is the Table XI load schedule: 500→4000 QPS in 500 QPS
// steps of 300 s.
var tableXIRamp = rampSpec{start: 500, max: 4000, step: 500, phaseS: 300}

func (r rampSpec) phases() []queueing.LoadPhase {
	return autoscaler.RampPhases(r.start, r.max, r.step, r.phaseS)
}

// rampCell keys one auto-scaler ramp run in the run's cell memo: every
// input that changes the result, and nothing else.
type rampCell struct {
	policy autoscaler.Policy
	seed   uint64
	ramp   rampSpec
}

// rampRuns runs each policy over the Table XI ramp (seed 3 unless
// o.Seed overrides it) through sweep.Map under o.Workers. Each run is
// a cell of o.Memo: the caller that computes it publishes the run's
// telemetry into o.Tel.Child(policy), and a caller that reuses it
// counts cells.shared in o.Tel instead.
func rampRuns(ctx context.Context, o Options, policies []autoscaler.Policy) ([]*autoscaler.Result, error) {
	ramp := tableXIRamp
	phases := ramp.phases()
	seed := o.SeedOr(3)
	return sweep.Map(ctx, len(policies), sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (*autoscaler.Result, error) {
			p := policies[i]
			r, shared, err := sweep.Do(ctx, o.Memo, rampCell{policy: p, seed: seed, ramp: ramp},
				func(ctx context.Context) (*autoscaler.Result, error) {
					cfg := autoscaler.DefaultConfig(p, phases)
					cfg.Seed = seed
					cfg.Tel = o.Tel.Child(p.String())
					return autoscaler.RunCtx(ctx, cfg)
				})
			if shared {
				o.Tel.Counter("cells.shared").Inc()
			}
			return r, err
		})
}

// tableXITable renders the policy comparison.
func tableXITable(res TableXIResult) *Table {
	t := &Table{
		Title:  "Table XI — Full auto-scaler experiment (ramp 500→4000 QPS)",
		Header: []string{"Config", "Norm P95 Lat", "Norm Avg Lat", "Max VMs", "VM×hours", "VM power vs base"},
		Notes: []string{
			"paper: OC-E 0.58/0.27, 6 VMs, 2.17 VMh, +7% power; OC-A 0.46/0.23, 5 VMs, 1.95 VMh, +27% power",
			"latency ratios here are whole-run request-weighted; the paper's larger ratios concentrate",
			"on the scale-out transition windows (see EXPERIMENTS.md)",
		},
	}
	base := res.Baseline
	row := func(r *autoscaler.Result) {
		t.AddRow(r.Policy.String(),
			F(r.P95LatencyS/base.P95LatencyS, 2),
			F(r.AvgLatencyS/base.AvgLatencyS, 2),
			fmt.Sprintf("%d", r.MaxVMs),
			F(r.VMHours, 2),
			Pct(r.AvgVMPowerW/base.AvgVMPowerW-1),
		)
	}
	row(res.Baseline)
	row(res.OCE)
	row(res.OCA)
	return t
}

// fig16Table renders the per-minute utilization traces.
func fig16Table(res TableXIResult) *Table {
	t := &Table{
		Title:  "Figure 16 — Utilization over time: Baseline vs OC-E vs OC-A",
		Header: []string{"t (s)", "QPS", "Baseline util", "OC-E util", "OC-A util", "Base VMs", "OC-E VMs", "OC-A VMs"},
	}
	phases := tableXIRamp.phases()
	total := 0.0
	for _, p := range phases {
		total += p.DurationS
	}
	qpsAt := func(ts float64) float64 {
		off := 0.0
		for _, p := range phases {
			if ts < off+p.DurationS {
				return p.QPS
			}
			off += p.DurationS
		}
		return 0
	}
	for ts := 60.0; ts < total; ts += 60 {
		t.AddRow(
			fmt.Sprintf("%.0f", ts),
			fmt.Sprintf("%.0f", qpsAt(ts)),
			F(res.Baseline.Util.At(ts), 2),
			F(res.OCE.Util.At(ts), 2),
			F(res.OCA.Util.At(ts), 2),
			fmt.Sprintf("%.0f", res.Baseline.VMs.At(ts)),
			fmt.Sprintf("%.0f", res.OCE.VMs.At(ts)),
			fmt.Sprintf("%.0f", res.OCA.VMs.At(ts)),
		)
	}
	return t
}

func init() {
	registerData("fig15", 150, []string{"paper", "sim"}, Fig15Data, fig15Table)
	registerData("fig16", 160, []string{"paper", "sim"}, TableXIData, fig16Table)
	registerData("table11", 170, []string{"paper", "sim"}, TableXIData, tableXITable)
}
