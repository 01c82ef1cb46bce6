package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/sweep"
)

// fleetSim runs the full-stack integration simulation — placement,
// overclock decisions, tank thermals, feeder capping and wear — over a
// two-day trace, at two load levels. A cancelled context stops the
// in-flight fleet simulation at its next control step. The two load
// levels are independent runs, so they fan out through sweep.Map under
// o.Workers, each publishing telemetry into a per-load child scope of
// o.Tel.
func fleetSim(ctx context.Context, o Options) (*Table, error) {
	t := &Table{
		Title:  "Integration — full-stack fleet simulation (3 tanks × 12 blades, 2-day trace)",
		Header: []string{"Load", "Peak density", "Rejected", "Peak OC", "OC srv-hours", "Max bath", "Cap events", "Wear vs schedule"},
		Notes: []string{
			"the paper's mechanisms interacting: the placer oversubscribes, the governor",
			"overclocks pressured servers, tanks meter their condenser budgets, the feeder",
			"cancels overclocks it cannot power, and every hour lands on the wear budget",
		},
	}
	loads := []struct {
		name string
		rate float64
		life float64
	}{
		{"moderate", 0.010, 10 * 3600},
		{"heavy", 0.035, 20 * 3600},
	}
	reports, err := sweep.Map(ctx, len(loads), sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (*dcsim.Report, error) {
			cfg := dcsim.DefaultConfig()
			cfg.Trace.ArrivalRatePerS = loads[i].rate
			cfg.Trace.MeanLifetimeS = loads[i].life
			cfg.Trace.Seed = o.SeedOr(cfg.Trace.Seed)
			cfg.Tel = o.Tel.Child(loads[i].name)
			return dcsim.RunCtx(ctx, cfg)
		})
	if err != nil {
		return nil, err
	}
	for i, rep := range reports {
		t.AddRow(loads[i].name,
			F(rep.PeakDensity, 3),
			fmt.Sprintf("%d", rep.Rejected),
			fmt.Sprintf("%d", rep.PeakOverclocked),
			F(rep.OverclockServerHours, 1),
			fmt.Sprintf("%.1f°C", rep.MaxBathC),
			fmt.Sprintf("%d (%d cancelled)", rep.CapEvents, rep.CancelledOverclocks),
			fmt.Sprintf("%.2f×", rep.MeanWearUsed))
	}
	return t, nil
}

func init() {
	registerTable("fleetsim", 310, []string{"extension", "sim"}, fleetSim)
}
