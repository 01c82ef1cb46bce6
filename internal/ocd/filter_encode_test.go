package ocd

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"immersionoc/internal/api"
	"immersionoc/internal/cluster"
	"immersionoc/internal/cow"
	"immersionoc/internal/vm"
)

// FuzzFilterEncodeMatchesJSON pins the hand-rolled /v1/filter encoder
// to encoding/json: over a synthetic published view — random occupancy,
// failed and reserved servers, tank overclock counts, server IDs and
// tank geometry — appendFilter must write exactly the bytes
// json.Encoder writes for the api.FilterResponse the same eligibility
// walk builds. Fleet sizes reach past two 1024-server COW chunks; the
// seeds cover the all-eligible and all-failed (omitempty) answers, the
// class reason, high-perf VMs on full tanks (the thermal reason) and
// harvest VMs.
func FuzzFilterEncodeMatchesJSON(f *testing.F) {
	// servers, seed, load, failed, ocFull (all /255), vcores, memory
	// (half-GB), class, overclockable fleet.
	f.Add(uint16(1029), int64(1), uint8(150), uint8(20), uint8(60), uint8(16), uint16(128), uint8(0), true)
	f.Add(uint16(11), int64(2), uint8(0), uint8(0), uint8(0), uint8(1), uint16(1), uint8(1), true)
	f.Add(uint16(36), int64(3), uint8(0), uint8(255), uint8(0), uint8(4), uint16(32), uint8(0), true)
	f.Add(uint16(1029), int64(4), uint8(100), uint8(10), uint8(128), uint8(8), uint16(64), uint8(2), true)
	f.Add(uint16(1029), int64(5), uint8(60), uint8(10), uint8(255), uint8(8), uint16(64), uint8(2), true)
	f.Add(uint16(99), int64(6), uint8(50), uint8(10), uint8(0), uint8(8), uint16(64), uint8(2), false)
	f.Add(uint16(2048), int64(7), uint8(200), uint8(5), uint8(50), uint8(32), uint16(500), uint8(3), true)
	f.Add(uint16(0), int64(8), uint8(255), uint8(0), uint8(0), uint8(63), uint16(799), uint8(0), false)

	f.Fuzz(func(t *testing.T, servers uint16, seed int64, load, failed, ocFull, vcores uint8,
		memHalfGB uint16, class uint8, overclockable bool) {
		rng := rand.New(rand.NewSource(seed))
		view := syntheticView(rng, int(servers)%2200+1, load, failed, ocFull, overclockable)
		spec := api.VMSpec{
			ID:       1,
			VCores:   int(vcores)%64 + 1,
			MemoryGB: float64(memHalfGB%800)/2 + 0.5,
			Class:    [...]string{"", "regular", "high-perf", "harvest"}[class%4],
		}
		c, err := classFromSpec(&spec)
		if err != nil {
			t.Fatal(err)
		}
		highPerf := c == vm.HighPerf

		var want bytes.Buffer
		resp := filterReference(view, spec.VCores, spec.MemoryGB, highPerf)
		if err := json.NewEncoder(&want).Encode(&resp); err != nil {
			t.Fatal(err)
		}
		refs := newRefTable(view)
		// Render twice through the same buffers, as the pooled scratch
		// does: stale contents must not leak into the second answer.
		out, fail := appendFilter(nil, nil, view, &refs, spec.VCores+1, spec.MemoryGB, !highPerf)
		got, _ := appendFilter(out[:0], fail, view, &refs, spec.VCores, spec.MemoryGB, highPerf)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%d servers, vm %+v:\n got %.300s\nwant %.300s", view.Flat.Servers, spec, got, want.Bytes())
		}
	})
}

// filterReference is the eligibility walk building the typed
// api.FilterResponse that the v1 wire format is defined by.
func filterReference(view *fleetView, vcores int, memoryGB float64, highPerf bool) api.FilterResponse {
	flat := &view.Flat
	resp := api.FilterResponse{Vers: api.Version}
	for i := 0; i < flat.Servers; i++ {
		tank := i / view.ServersPerTank
		ref := api.ServerRef{Index: i, ID: flat.ID.At(i), Tank: tank}
		reason := flat.Explain(i, vcores, memoryGB, highPerf)
		if reason == "" && highPerf && view.OCPerTank[tank] >= view.TankBudget[tank] {
			reason = reasonThermal
		}
		if reason == "" {
			resp.Eligible = append(resp.Eligible, ref)
		} else {
			resp.Failed = append(resp.Failed, api.FilterFailure{Server: ref, Reason: reason})
		}
	}
	return resp
}

// syntheticView builds a published view of n servers directly, at the
// daemon's default COW chunk size. load, failed and ocFull are
// probabilities out of 255 that a server is occupied, that it is
// failed (half as often, reserved), and that a tank has no overclock
// headroom left.
func syntheticView(rng *rand.Rand, n int, load, failed, ocFull uint8, overclockable bool) *fleetView {
	spec := cluster.ServerSpec{PCores: 48, MemoryGB: 384, Overclockable: overclockable}
	vcoreCap := spec.PCores
	if rng.Intn(2) == 0 {
		vcoreCap = int(float64(spec.PCores) * 1.2)
	}
	idBase := 0
	if rng.Intn(2) == 0 {
		idBase = rng.Intn(1 << 40)
	}
	perTank := 1 + rng.Intn(16)
	view := &fleetView{}
	view.ServersPerTank = perTank
	flat := &view.Flat
	flat.Servers, flat.Spec, flat.VCoreCap = n, spec, vcoreCap

	used := make([]int, n)
	mem := make([]float64, n)
	down := make([]bool, n)
	reserved := make([]bool, n)
	for i := range used {
		if rng.Intn(255) < int(load) {
			used[i] = rng.Intn(vcoreCap + 1)
			mem[i] = rng.Float64() * spec.MemoryGB
		}
		down[i] = rng.Intn(255) < int(failed)
		reserved[i] = rng.Intn(255) < int(failed)/2
	}
	for tank := 0; tank*perTank < n; tank++ {
		budget := 1 + rng.Intn(4)
		oc := rng.Intn(budget)
		if rng.Intn(255) < int(ocFull) {
			oc = budget
		}
		view.TankBudget = append(view.TankBudget, budget)
		view.OCPerTank = append(view.OCPerTank, oc)
	}

	tr := cow.NewTracker(n, cow.DefaultShift)
	cow.Fill(tr, &flat.ID, func(d []int, base int) {
		for j := range d {
			d[j] = idBase + base + j
		}
	})
	fillFrom(tr, &flat.VCoresUsed, used)
	fillFrom(tr, &flat.MemoryUsedGB, mem)
	fillFrom(tr, &flat.Failed, down)
	fillFrom(tr, &flat.Reserved, reserved)
	return view
}

func fillFrom[T any](tr *cow.Tracker, col *cow.Col[T], src []T) {
	cow.Fill(tr, col, func(d []T, base int) { copy(d, src[base:]) })
}
