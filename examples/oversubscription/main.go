// Oversubscription: reproduce the dense-VM-packing use-case — run SQL
// VMs on fewer physical cores than they ask for, compare the baseline
// configuration with overclocking, and translate the freed cores into
// TCO per virtual core.
//
//	go run ./examples/oversubscription
package main

import (
	"context"
	"fmt"
	"log"

	"immersionoc/internal/core"
	"immersionoc/internal/experiments"
	"immersionoc/internal/tco"
	"immersionoc/internal/workload"
)

func main() {
	// Part 1: latency under oversubscription (Figure 12's regime,
	// shortened). 4 SQL VMs × 4 vcores on 12 vs 16 pcores.
	p := experiments.DefaultFig12Params()
	p.DurationS = 240
	p.PCoreSteps = []int{12, 16}
	data, err := experiments.Fig12Data(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}

	b16, _ := experiments.Fig12Find(data, "B2", 16)
	b12, _ := experiments.Fig12Find(data, "B2", 12)
	o12, _ := experiments.Fig12Find(data, "OC3", 12)

	fmt.Println("4 SQL VMs (16 vcores) on a shared physical core pool:")
	fmt.Printf("  B2 @16 pcores (no oversubscription): P95 %7.1f ms, %3.0f W\n", b16.MeanP95MS, b16.AvgPowerW)
	fmt.Printf("  B2 @12 pcores (25%% oversubscribed):  P95 %7.1f ms, %3.0f W\n", b12.MeanP95MS, b12.AvgPowerW)
	fmt.Printf("  OC3 @12 pcores (oversubscribed+OC):  P95 %7.1f ms, %3.0f W\n", o12.MeanP95MS, o12.AvgPowerW)
	fmt.Printf("  → overclocking makes 12 pcores perform like 16 (%.2fx of the B2@16 P95), freeing 4 cores\n\n",
		o12.MeanP95MS/b16.MeanP95MS)

	// Part 2: which configuration does the governor prescribe to
	// absorb the oversubscription?
	demand := 4 * 4 * 0.55 // 4 VMs × 4 vcores × avg utilization
	needed := core.MitigationSpeedup(demand, 8)
	cfg, err := core.ConfigForSpeedup(needed, core.VectorOf(workload.SQL))
	if err != nil {
		fmt.Printf("governor: %.2fx speedup needed on 8 pcores: %v\n\n", needed, err)
	} else {
		fmt.Printf("governor: %.2fx speedup needed on 8 pcores → %s\n\n", needed, cfg.Name)
	}

	// Part 3: the TCO consequence (§VI-C).
	m, err := tco.NewDefaultFromTableI()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("TCO per virtual core (air-cooled baseline = 1.000):")
	for _, s := range []tco.Scenario{tco.AirCooled, tco.TwoPhase, tco.TwoPhaseOC} {
		fmt.Printf("  %-24s %.3f\n", s.String(), m.CostPerVCore(s, 0))
	}
	withOversub := m.CostPerVCore(tco.TwoPhaseOC, 0.10)
	sav := m.OversubAnalysis(tco.TwoPhaseOC, 0.10)
	fmt.Printf("  %-24s %.3f (−%.0f%% vs air)\n",
		"OC 2PIC + 10% oversub", withOversub, sav.VsAir*100)
	fmt.Println("\n(the paper's headline: 10% oversubscription cuts Azure's cost per vcore by 13%)")
}
