// Capacity: exercise the fleet-level use-cases — replacing static
// failover buffers with overclocking-backed virtual buffers (Figure 6)
// and bridging a capacity crisis (Figure 7) — on a simulated cluster
// with a synthetic Azure-like VM trace.
//
//	go run ./examples/capacity [-servers 20] [-failures 2]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"immersionoc/internal/cluster"
	"immersionoc/internal/experiments"
	"immersionoc/internal/vm"
)

func main() {
	servers := flag.Int("servers", 20, "fleet size")
	failures := flag.Int("failures", 2, "servers lost in the failure event")
	flag.Parse()

	// Part 1: buffer reduction.
	trace := vm.DefaultTrace
	trace.ArrivalRatePerS = 0.25
	trace.DurationS = 24 * 3600
	trace.MeanLifetimeS = 48 * 3600
	ctx := context.Background()
	res, err := experiments.BuffersData(ctx, experiments.Options{}, *servers, *failures, 0.10, trace)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("fleet of %d servers (%d pcores each), %d-server failure:\n\n",
		*servers, cluster.TwoSocketBlade.PCores, *failures)
	fmt.Printf("  static buffer (10%% reserved): sells %4d vcores, recovers %5.1f%% of displaced VMs\n",
		res.StaticSellable, res.StaticRecovered*100)
	fmt.Printf("  virtual buffer (OC-backed):   sells %4d vcores, recovers %5.1f%% of displaced VMs\n",
		res.VirtualSellable, res.VirtualRecovered*100)
	fmt.Printf("  → the virtual buffer sells %d more vcores (%.0f%%) during normal operation\n\n",
		res.VirtualSellable-res.StaticSellable,
		float64(res.VirtualSellable-res.StaticSellable)/float64(res.StaticSellable)*100)

	// Part 2: capacity crisis.
	crisis := vm.DefaultTrace
	crisis.Seed = 99
	crisis.ArrivalRatePerS = 0.012
	crisis.DurationS = 2 * 24 * 3600
	crisis.MeanLifetimeS = 24 * 3600
	cres, err := experiments.CapacityCrisisData(ctx, experiments.Options{}, 16, crisis)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capacity crisis: peak demand %d vcores against %d pcores\n", cres.DemandVCores, cres.SupplyPCores)
	fmt.Printf("  1:1 fleet denied %d VM requests; overclocking-backed fleet denied %d (−%.0f%%)\n",
		cres.DeniedBaseline, cres.DeniedOC,
		(1-float64(cres.DeniedOC)/float64(cres.DeniedBaseline))*100)

	// Part 3: packing density.
	pt := vm.DefaultTrace
	pt.ArrivalRatePerS = 0.012
	pres, err := experiments.PackingData(ctx, experiments.Options{}, 24, pt, 0.25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npacking density on a 24-server fleet:\n")
	fmt.Printf("  air-cooled 1:1:      %.3f vcores/pcore (%d arrivals rejected)\n",
		pres.BaselineDensity, pres.BaselineRejected)
	fmt.Printf("  2PIC + 25%% oversub:  %.3f vcores/pcore (%d rejected) → +%.0f%% density\n",
		pres.OversubDensity, pres.OversubRejected, pres.DensityGain*100)
}
