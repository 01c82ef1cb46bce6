package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/cluster"
	"immersionoc/internal/sweep"
	"immersionoc/internal/vm"
)

// packOutcome is one fleet's trace replay: peak density, rejected
// arrivals, and the post-replay interference count (only meaningful
// for oversubscribed fleets).
type packOutcome struct {
	peak   float64
	rej    int
	atRisk int
}

// packFleets replays the same generated trace through independent
// fleets, fanning the replays out through sweep.Map under o.Workers.
// The VM slice is shared read-only: PackTrace mutates only its own
// cluster's placement state.
func packFleets(ctx context.Context, o Options, vms []*vm.VM, mk func(i int) *cluster.Cluster) ([]packOutcome, error) {
	return sweep.Map(ctx, 2, sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (packOutcome, error) {
			c := mk(i)
			peak, rej := c.PackTrace(vms)
			return packOutcome{peak: peak, rej: rej, atRisk: c.InterferenceRisk()}, nil
		})
}

// PackingResult compares packing density with and without
// overclocking-backed oversubscription.
type PackingResult struct {
	BaselineDensity, OversubDensity   float64
	BaselineRejected, OversubRejected int
	// DensityGain is the relative packing-density improvement.
	DensityGain float64
	AtRisk      int
}

// PackingData replays a VM trace through two fleets of equal size: an
// air-cooled fleet (1:1 vcore:pcore) and a 2PIC fleet allowed 20% CPU
// oversubscription backed by overclocking (§V "Dense VM packing"). A
// non-zero o.Seed overrides the trace seed. The two fleet replays fan
// out through sweep.Map under o.Workers; both replay the same
// generated trace, so the result is worker-count-independent.
func PackingData(ctx context.Context, o Options, servers int, trace vm.TraceConfig, oversub float64) (PackingResult, error) {
	trace.Seed = o.SeedOr(trace.Seed)
	vms := vm.Generate(trace)
	outs, err := packFleets(ctx, o, vms, func(i int) *cluster.Cluster {
		if i == 0 {
			return cluster.New(cluster.AirBlade, cluster.Policy{}, servers)
		}
		return cluster.New(cluster.TwoSocketBlade, cluster.Policy{CPUOversubRatio: oversub}, servers)
	})
	if err != nil {
		return PackingResult{}, err
	}
	base, over := outs[0], outs[1]
	gain := 0.0
	if base.peak > 0 {
		gain = over.peak/base.peak - 1
	}
	return PackingResult{
		BaselineDensity:  base.peak,
		OversubDensity:   over.peak,
		BaselineRejected: base.rej,
		OversubRejected:  over.rej,
		DensityGain:      gain,
		AtRisk:           over.atRisk,
	}, nil
}

// packingTable renders the packing-density experiment.
func packingTable(res PackingResult) *Table {
	t := &Table{
		Title:  "§V — VM packing density via overclocking-backed oversubscription (24 servers)",
		Header: []string{"Fleet", "Peak density (vcores/pcore)", "Rejected arrivals"},
		Notes:  []string{"paper: overclocking + oversubscription increases packing density by ~20%"},
	}
	t.AddRow("Air-cooled (1:1)", F(res.BaselineDensity, 3), fmt.Sprintf("%d", res.BaselineRejected))
	t.AddRow("2PIC + 25% oversub", F(res.OversubDensity, 3), fmt.Sprintf("%d", res.OversubRejected))
	t.Notes = append(t.Notes,
		fmt.Sprintf("density gain %+.1f%%; oversubscribed servers exceeding even overclocked capacity: %d", res.DensityGain*100, res.AtRisk))
	return t
}

// BufferResult compares static failover buffers with
// overclocking-backed virtual buffers (Figure 6).
type BufferResult struct {
	// StaticRecovered / VirtualRecovered are the fractions of
	// displaced VMs re-created after the failure.
	StaticRecovered, VirtualRecovered float64
	// StaticSellable / VirtualSellable are the vcores the fleet can
	// sell during normal operation (the static buffer idles
	// capacity; the virtual buffer sells it).
	StaticSellable, VirtualSellable int
	Displaced                       int
}

// BuffersData fills two equal fleets to the same demand, fails
// `failures` servers in each, and recovers the displaced VMs: the
// static fleet onto its reserved buffer servers, the virtual fleet
// onto surviving servers via oversubscription + overclocking. A
// non-zero o.Seed overrides the trace seed. The two fleets replay one
// after the other; a cancelled context stops the run between them.
func BuffersData(ctx context.Context, o Options, servers, failures int, bufferFraction float64, trace vm.TraceConfig) (BufferResult, error) {
	trace.Seed = o.SeedOr(trace.Seed)
	vms := vm.Generate(trace)
	// failover fills c with every VM that fits (steady state, no
	// departures — rejection is the signal), fails `failures` servers,
	// and re-creates the displaced VMs under the failover
	// oversubscription ratio.
	failover := func(c *cluster.Cluster, ratio float64) (sellable, displaced int, recovered float64) {
		for _, v := range vms {
			c.Place(v) //nolint:errcheck
		}
		sellable = c.Stats().VCoresAllocated
		disp := c.FailServers(failures)
		c.SetOversubRatio(ratio)
		if len(disp) > 0 {
			recovered = float64(c.Recover(disp)) / float64(len(disp))
		}
		return sellable, len(disp), recovered
	}

	var res BufferResult
	staticC := cluster.New(cluster.TwoSocketBlade, cluster.Policy{BufferFraction: bufferFraction}, servers)
	res.StaticSellable, res.Displaced, res.StaticRecovered = failover(staticC, 0)
	if err := ctx.Err(); err != nil {
		return BufferResult{}, err
	}
	// The virtual-buffer fleet runs 1:1 during normal operation and
	// keeps the overclocking headroom in reserve: failover enables
	// overclocking-backed oversubscription to absorb the displaced VMs
	// on the surviving servers.
	virtualC := cluster.New(cluster.TwoSocketBlade, cluster.Policy{}, servers)
	res.VirtualSellable, _, res.VirtualRecovered = failover(virtualC, 0.25)
	return res, nil
}

// buffersTable renders the buffer-reduction experiment.
func buffersTable(res BufferResult) *Table {
	t := &Table{
		Title:  "Figure 6 — Static failover buffers vs overclocking-backed virtual buffers (20 servers, 2 failures)",
		Header: []string{"Strategy", "Sellable vcores (normal op)", "Displaced VMs recovered"},
		Notes: []string{
			"the virtual buffer sells the reserve capacity during normal operation and absorbs",
			"failover through oversubscription + overclocking",
		},
	}
	t.AddRow("Static buffer (10% reserved)", fmt.Sprintf("%d", res.StaticSellable), Pct(res.StaticRecovered))
	t.AddRow("Virtual buffer (OC-backed)", fmt.Sprintf("%d", res.VirtualSellable), Pct(res.VirtualRecovered))
	return t
}

// CapacityCrisisResult quantifies Figure 7: a demand overshoot against
// fixed supply, bridged by overclocking-backed oversubscription.
type CapacityCrisisResult struct {
	// DemandVCores is the peak demanded vcores; SupplyPCores the
	// fleet's physical cores.
	DemandVCores, SupplyPCores int
	// ServedBaseline / ServedOC are peak vcores actually placed.
	ServedBaseline, ServedOC int
	// DeniedBaseline / DeniedOC are VM requests denied.
	DeniedBaseline, DeniedOC int
}

// CapacityCrisisData replays a demand trace whose peak exceeds the
// fleet's 1:1 capacity (the red gap of Figure 7) through a baseline and
// an overclocking-backed fleet, counting denied VM requests. A
// non-zero o.Seed overrides the trace seed. The two fleet replays fan
// out through sweep.Map under o.Workers.
func CapacityCrisisData(ctx context.Context, o Options, servers int, trace vm.TraceConfig) (CapacityCrisisResult, error) {
	trace.Seed = o.SeedOr(trace.Seed)
	vms := vm.Generate(trace)
	peak := 0
	cur := 0
	for _, ev := range vm.Events(vms) {
		if ev.Arrival {
			cur += ev.VM.Type.VCores
			if cur > peak {
				peak = cur
			}
		} else {
			cur -= ev.VM.Type.VCores
		}
	}

	res := CapacityCrisisResult{DemandVCores: peak, SupplyPCores: servers * cluster.TwoSocketBlade.PCores}
	outs, err := packFleets(ctx, o, vms, func(i int) *cluster.Cluster {
		if i == 0 {
			return cluster.New(cluster.TwoSocketBlade, cluster.Policy{}, servers)
		}
		return cluster.New(cluster.TwoSocketBlade, cluster.Policy{CPUOversubRatio: 0.20}, servers)
	})
	if err != nil {
		return CapacityCrisisResult{}, err
	}
	res.DeniedBaseline = outs[0].rej
	res.DeniedOC = outs[1].rej
	res.ServedBaseline = int(outs[0].peak * float64(res.SupplyPCores))
	res.ServedOC = int(outs[1].peak * float64(res.SupplyPCores))
	return res, nil
}

// capacityCrisisTable renders the capacity-crisis experiment.
func capacityCrisisTable(res CapacityCrisisResult) *Table {
	t := &Table{
		Title:  "Figure 7 — Capacity crisis mitigation (demand beyond supply)",
		Header: []string{"Fleet", "VM requests denied"},
		Notes:  []string{fmt.Sprintf("peak demand %d vcores against %d pcores", res.DemandVCores, res.SupplyPCores)},
	}
	t.AddRow("1:1 (no overclocking)", fmt.Sprintf("%d", res.DeniedBaseline))
	t.AddRow("overclocking-backed +20%", fmt.Sprintf("%d", res.DeniedOC))
	return t
}

func init() {
	registerData("packing", 180, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (PackingResult, error) {
			trace := vm.DefaultTrace
			// Sized so steady demand hovers around the air fleet's 1:1
			// capacity: the oversubscribed fleet absorbs the overflow.
			trace.ArrivalRatePerS = 0.012
			return PackingData(ctx, o, 24, trace, 0.25)
		}, packingTable)
	registerData("buffers", 190, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (BufferResult, error) {
			trace := vm.DefaultTrace
			trace.ArrivalRatePerS = 0.25
			trace.DurationS = 24 * 3600
			trace.MeanLifetimeS = 48 * 3600
			return BuffersData(ctx, o, 20, 2, 0.10, trace)
		}, buffersTable)
	registerData("capacity", 200, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (CapacityCrisisResult, error) {
			trace := vm.DefaultTrace
			trace.Seed = 99
			trace.ArrivalRatePerS = 0.012
			trace.DurationS = 2 * 24 * 3600
			trace.MeanLifetimeS = 24 * 3600
			return CapacityCrisisData(ctx, o, 16, trace)
		}, capacityCrisisTable)
}
