package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/autoscaler"
	"immersionoc/internal/sweep"
)

// DiurnalResult compares auto-scaler policies over a compressed
// diurnal day.
type DiurnalResult struct {
	Results []*autoscaler.Result
}

// DiurnalData runs Baseline, OC-E and OC-A over a compressed diurnal
// day (raised-cosine load, trough 300 QPS, peak 3300 QPS). Diurnal
// patterns are where the paper expects "scale up, then out" to pay off
// most: the overclock absorbs the morning ramp and the evening decline
// without churning VMs. The zero Options reproduces the published run
// (seed 3, 3600 s day). The three policy runs share only the read-only
// diurnal phase list, so they fan out through sweep.Map under
// o.Workers, each publishing telemetry into a per-policy child scope; a
// cancelled context stops the in-flight policy simulation at the
// kernel's next event batch instead of finishing the simulated day.
func DiurnalData(ctx context.Context, o Options) (DiurnalResult, error) {
	phases := autoscaler.DiurnalPhases(300, 3300, o.DurationOr(3600), 120)
	policies := []autoscaler.Policy{autoscaler.Baseline, autoscaler.OCE, autoscaler.OCA}
	results, err := sweep.Map(ctx, len(policies), sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (*autoscaler.Result, error) {
			cfg := autoscaler.DefaultConfig(policies[i], phases)
			cfg.Seed = o.SeedOr(3)
			cfg.Tel = o.Tel.Child(policies[i].String())
			return autoscaler.RunCtx(ctx, cfg)
		})
	if err != nil {
		return DiurnalResult{}, err
	}
	return DiurnalResult{Results: results}, nil
}

// diurnalTable renders the policy rows.
func diurnalTable(res DiurnalResult) *Table {
	base := res.Results[0]
	t := &Table{
		Title:  "Extension — compressed diurnal day (300→3300→300 QPS raised cosine over 1 h)",
		Header: []string{"Policy", "Norm P95", "Max VMs", "VM×hours", "Energy/request", "Scale-outs/ins"},
		Notes: []string{
			"long-running services see this shape daily; OC-A rides the ramps with frequency",
			"instead of churning VMs",
		},
	}
	for _, r := range res.Results {
		t.AddRow(r.Policy.String(),
			F(r.P95LatencyS/base.P95LatencyS, 2),
			fmt.Sprintf("%d", r.MaxVMs),
			F(r.VMHours, 2),
			fmt.Sprintf("%.1f mJ", r.EnergyPerReqJ*1000),
			fmt.Sprintf("%d/%d", r.ScaleOuts, r.ScaleIns))
	}
	return t
}

func init() {
	registerData("diurnal", 290, []string{"extension", "sim"}, DiurnalData, diurnalTable)
}
