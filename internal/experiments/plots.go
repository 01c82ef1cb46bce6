package experiments

import (
	"context"
	"fmt"
	"strings"

	"immersionoc/internal/plot"
	"immersionoc/internal/stats"
)

// PlotFig15 renders the Figure 15 validation run as ASCII charts:
// utilization (controlled vs baseline) and the frequency fraction.
func PlotFig15(ctx context.Context, o Options) (string, error) {
	res, err := Fig15Data(ctx, o)
	if err != nil {
		return "", err
	}
	model := res.WithModel.Util
	model.Name = "util (model)"
	baseline := res.Baseline.Util
	baseline.Name = "util (baseline)"
	freqS := res.WithModel.FreqFrac
	freqS.Name = "freq fraction"
	var b strings.Builder
	b.WriteString(plot.Lines("Figure 15 — utilization under load steps 1000/2000/500/3000/1000 QPS", 72, 12, model, baseline))
	b.WriteString("\n")
	b.WriteString(plot.Lines("Figure 15 — frequency (fraction of B2→OC1 range)", 72, 8, freqS))
	return b.String(), nil
}

// PlotFig16 renders the Figure 16 utilization and VM-count traces for
// the three auto-scaler policies.
func PlotFig16(ctx context.Context, o Options) (string, error) {
	res, err := TableXIData(ctx, o)
	if err != nil {
		return "", err
	}
	nameSeries := func(s *stats.Series, name string) *stats.Series {
		s.Name = name
		return s
	}
	var b strings.Builder
	b.WriteString(plot.Lines("Figure 16 — utilization (ramp 500→4000 QPS)", 72, 12,
		nameSeries(res.Baseline.Util, "baseline"),
		nameSeries(res.OCE.Util, "OC-E"),
		nameSeries(res.OCA.Util, "OC-A")))
	b.WriteString("\n")
	b.WriteString(plot.Lines("Figure 16 — deployed VMs", 72, 8,
		nameSeries(res.Baseline.VMs, "baseline"),
		nameSeries(res.OCA.VMs, "OC-A")))
	return b.String(), nil
}

// PlotFig12 renders the Figure 12 oversubscription sweep as latency
// bars (log-like compression via labels, linear bars).
func PlotFig12(ctx context.Context, o Options) (string, error) {
	data, err := Fig12Data(ctx, DefaultFig12Params().withOptions(o))
	if err != nil {
		return "", err
	}
	var labels []string
	var values []float64
	for _, d := range data {
		labels = append(labels, fmt.Sprintf("%s @%2dp", d.Config, d.PCores))
		values = append(values, d.MeanP95MS)
	}
	return plot.Bars("Figure 12 — mean P95 latency (ms), 4 SQL VMs on shared pcores", 50, labels, values), nil
}

// PlotDiurnal renders the diurnal-day comparison.
func PlotDiurnal(ctx context.Context, o Options) (string, error) {
	res, err := DiurnalData(ctx, o)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	base := res.Results[0]
	oca := res.Results[2]
	base.Util.Name = "baseline util"
	oca.Util.Name = "OC-A util"
	b.WriteString(plot.Lines("Diurnal day — utilization", 72, 10, base.Util, oca.Util))
	b.WriteString("\n")
	base.VMs.Name = "baseline VMs"
	oca.VMs.Name = "OC-A VMs"
	b.WriteString(plot.Lines("Diurnal day — deployed VMs", 72, 8, base.VMs, oca.VMs))
	return b.String(), nil
}

func init() {
	registerPlot("plot-fig12", 400, []string{"plot", "sim"},
		func(ctx context.Context, o Options) (string, error) { return PlotFig12(ctx, o) })
	registerPlot("plot-fig15", 410, []string{"plot", "sim"},
		func(ctx context.Context, o Options) (string, error) { return PlotFig15(ctx, o) })
	registerPlot("plot-fig16", 420, []string{"plot", "sim"},
		func(ctx context.Context, o Options) (string, error) { return PlotFig16(ctx, o) })
	registerPlot("plot-diurnal", 430, []string{"plot", "sim"},
		func(ctx context.Context, o Options) (string, error) { return PlotDiurnal(ctx, o) })
}
