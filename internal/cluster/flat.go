package cluster

import "immersionoc/internal/cow"

// Flat is a columnar, read-only export of per-server placement state:
// the fields the control-plane read path needs to answer
// filter/prioritize/status queries without touching the live Cluster.
// The ocd daemon publishes one Flat per mutation (inside a
// dcsim.FleetSnapshot) and serves reads from it lock-free.
//
// The per-server columns are chunked copy-on-write (internal/cow): an
// export chained off the previous published Flat re-materializes only
// the chunks whose servers changed since that publish and aliases the
// rest, so publishing after a one-VM placement costs O(dirty chunks),
// not O(fleet). Readers index columns through At(i); a published Flat
// and everything it references are immutable.
//
// Fleets are spec-uniform (New builds every server from one
// ServerSpec), so the spec and the policy-derived vcore cap are stored
// once instead of per server.
type Flat struct {
	// Servers is the fleet size (the length of every per-server column).
	Servers int
	// PlacedVMs and Density are the Stats() packing KPIs, read from the
	// cluster's incremental counters at export time.
	PlacedVMs int
	Density   float64

	// Spec is the (uniform) server hardware shape; OversubRatio the
	// policy's CPU oversubscription; VCoreCap the per-server vcore
	// allocation limit the two imply.
	Spec         ServerSpec
	OversubRatio float64
	VCoreCap     int

	// Per-server columns, indexed by dense fleet index via At(i).
	ID           cow.Col[int]
	VCoresUsed   cow.Col[int]
	VMs          cow.Col[int]
	MemoryUsedGB cow.Col[float64]
	DemandCores  cow.Col[float64]
	Failed       cow.Col[bool]
	Reserved     cow.Col[bool]
}

// ExportFlat fills dst from the cluster's current state. When dst is
// the Flat produced by the previous export (the daemon chains each
// published view off its predecessor), only the chunks containing
// servers mutated since then are rebuilt; a fresh or foreign dst is
// materialized in full. The export is a pure read of placement state,
// so interleaving it with reads or between mutations cannot perturb a
// deterministic replay.
func (c *Cluster) ExportFlat(dst *Flat) {
	dst.Servers = len(c.servers)
	dst.Spec = c.Spec
	dst.OversubRatio = c.Policy.CPUOversubRatio
	dst.VCoreCap = c.idx.capV
	dst.PlacedVMs = c.placedCount
	dst.Density = c.Density()

	srv := c.servers
	cow.Fill(c.track, &dst.ID, func(d []int, base int) {
		for j := range d {
			d[j] = srv[base+j].ID
		}
	})
	cow.Fill(c.track, &dst.VCoresUsed, func(d []int, base int) {
		for j := range d {
			d[j] = srv[base+j].vcoresUse
		}
	})
	cow.Fill(c.track, &dst.VMs, func(d []int, base int) {
		for j := range d {
			d[j] = len(srv[base+j].vms)
		}
	})
	cow.Fill(c.track, &dst.MemoryUsedGB, func(d []float64, base int) {
		for j := range d {
			d[j] = srv[base+j].memUse
		}
	})
	cow.Fill(c.track, &dst.DemandCores, func(d []float64, base int) {
		for j := range d {
			d[j] = srv[base+j].expDemand
		}
	})
	cow.Fill(c.track, &dst.Failed, func(d []bool, base int) {
		for j := range d {
			d[j] = srv[base+j].Failed
		}
	})
	cow.Fill(c.track, &dst.Reserved, func(d []bool, base int) {
		for j := range d {
			d[j] = srv[base+j].Reserved
		}
	})
	c.track.Advance()
}

// Explain mirrors Cluster.Explain over the flat export: the
// machine-readable reason server i cannot take a VM of the given
// shape, or "" when it fits. The returned strings are the same
// interned constants Explain returns, so callers building per-server
// failure lists never allocate a reason. Kept next to explain() so the
// two cannot drift; TestFlatExplainMatchesLive pins the equivalence.
func (f *Flat) Explain(i, vcores int, memoryGB float64, highPerf bool) string {
	if f.Failed.At(i) || f.Reserved.At(i) {
		return ReasonFailed
	}
	if f.MemoryUsedGB.At(i)+memoryGB > f.Spec.MemoryGB {
		return ReasonMemory
	}
	if f.VCoresUsed.At(i)+vcores > f.VCoreCap {
		return ReasonCapacity
	}
	if highPerf {
		if !f.Spec.Overclockable {
			return ReasonClass
		}
		if f.VCoresUsed.At(i)+vcores > f.Spec.PCores {
			return ReasonClass
		}
	}
	return ""
}
