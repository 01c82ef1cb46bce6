// Package cluster simulates fleet-level VM placement: the
// multi-dimensional bin packing providers use (§V "Dense VM packing"),
// CPU oversubscription backed by overclocking, failover buffers
// (Figure 6), and capacity-crisis mitigation (Figure 7).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"immersionoc/internal/cow"
	"immersionoc/internal/vm"
)

// ServerSpec describes the physical shape of fleet servers.
type ServerSpec struct {
	PCores   int
	MemoryGB float64
	// Overclockable reports whether the server can enter the
	// overclocking bands (2PIC fleet).
	Overclockable bool
	// OCSpeedup is the throughput gain available from overclocking
	// (e.g. 1.20 for the +20% core/uncore overclock of OC3); it
	// bounds how much CPU oversubscription overclocking can absorb.
	OCSpeedup float64
}

// TwoSocketBlade is the large-tank Open Compute shape: 2 × 24 cores.
var TwoSocketBlade = ServerSpec{PCores: 48, MemoryGB: 384, Overclockable: true, OCSpeedup: 1.20}

// AirBlade is the same shape without overclocking capability.
var AirBlade = ServerSpec{PCores: 48, MemoryGB: 384, Overclockable: false, OCSpeedup: 1.0}

// Server is one fleet server with its current allocations.
type Server struct {
	ID   int
	Spec ServerSpec
	// Reserved marks buffer servers that normal placement skips.
	Reserved bool
	// Failed marks servers lost to an infrastructure failure.
	Failed bool

	// vms holds the placed VMs sorted by ascending ID. A sorted slice
	// instead of a map keeps iteration order deterministic without a
	// per-read sort-and-copy, which is what lets fleet control loops
	// walk allocations allocation-free. Each entry carries its VM's ID
	// inline, so the binary search in attach/detach reads only this
	// slice's backing array instead of one cold VM struct per probe.
	vms       []vmSlot
	vcoresUse int
	memUse    float64
	// expDemand is the expected concurrent core demand
	// Σ vcores·AvgUtil over the placed VMs, maintained incrementally
	// on placement changes so control planes read it as a field
	// instead of re-summing the allocation list every step.
	expDemand float64
}

// vmSlot is one placed VM with its ID copied inline.
type vmSlot struct {
	id int
	v  *vm.VM
}

// VCoresUsed returns allocated vcores.
func (s *Server) VCoresUsed() int { return s.vcoresUse }

// MemoryUsed returns allocated memory in GB.
func (s *Server) MemoryUsed() float64 { return s.memUse }

// VMs returns the number of VMs placed on the server.
func (s *Server) VMs() int { return len(s.vms) }

// Oversubscribed reports whether allocated vcores exceed pcores.
func (s *Server) Oversubscribed() bool { return s.vcoresUse > s.Spec.PCores }

// ExpectedDemand returns the server's expected concurrent core demand
// (Σ vcores·AvgUtil over its placed VMs). The value is maintained
// incrementally by Place/Remove/failure/migration paths, so reading it
// is O(1); drained servers reset it exactly to zero.
func (s *Server) ExpectedDemand() float64 { return s.expDemand }

// VMsList returns a copy of the server's placed VMs in ascending ID
// order. Hot loops that only need to walk the allocations should use
// ForEachVM, which does not allocate.
func (s *Server) VMsList() []*vm.VM {
	out := make([]*vm.VM, len(s.vms))
	for i, e := range s.vms {
		out[i] = e.v
	}
	return out
}

// ForEachVM calls f for each placed VM in ascending ID order without
// allocating. f must not place or remove VMs on this server.
func (s *Server) ForEachVM(f func(*vm.VM)) {
	for _, e := range s.vms {
		f(e.v)
	}
}

// search returns the position of the first entry with ID ≥ id.
func (s *Server) search(id int) int {
	lo, hi := 0, len(s.vms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.vms[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// attach inserts v keeping s.vms sorted by ID and updates the
// incremental resource accounting.
func (s *Server) attach(v *vm.VM) {
	i := s.search(v.ID)
	s.vms = append(s.vms, vmSlot{})
	copy(s.vms[i+1:], s.vms[i:])
	s.vms[i] = vmSlot{id: v.ID, v: v}
	s.vcoresUse += v.Type.VCores
	s.memUse += v.Type.MemoryGB
	s.expDemand += float64(v.Type.VCores) * v.AvgUtil
}

// detach removes the VM with the given ID, returns it, and updates the
// incremental accounting. The host table says the VM is here; a
// missing entry means the two records disagree, which is a bug, so it
// panics rather than detach a neighbour. A fully drained server resets
// its expected demand to an exact zero so floating-point residue
// cannot accumulate across place/remove cycles.
func (s *Server) detach(id int) *vm.VM {
	i := s.search(id)
	if i == len(s.vms) || s.vms[i].id != id {
		panic(fmt.Sprintf("cluster: VM %d not on server %d", id, s.ID))
	}
	v := s.vms[i].v
	copy(s.vms[i:], s.vms[i+1:])
	s.vms[len(s.vms)-1] = vmSlot{}
	s.vms = s.vms[:len(s.vms)-1]
	s.vcoresUse -= v.Type.VCores
	s.memUse -= v.Type.MemoryGB
	if len(s.vms) == 0 {
		s.expDemand = 0
	} else {
		s.expDemand -= float64(v.Type.VCores) * v.AvgUtil
	}
	return v
}

// Policy controls placement behaviour.
type Policy struct {
	// CPUOversubRatio allows allocated vcores up to
	// (1+ratio)·pcores on overclockable servers. Zero disables
	// oversubscription.
	CPUOversubRatio float64
	// BufferFraction reserves that fraction of servers for failover
	// (the static buffer of Figure 6). With overclocking-backed
	// virtual buffers this is zero.
	BufferFraction float64
}

// Cluster is a fleet of servers plus a placement policy.
type Cluster struct {
	Spec    ServerSpec
	Policy  Policy
	servers []*Server
	// hosts maps each placed VM's ID to its server's index (ID ==
	// index), the one VM→host record of the cluster.
	hosts hostTable
	// idx is the best-fit placement index: non-reserved live servers
	// bucketed by remaining vcore headroom. Maintained by every
	// mutation path (place/remove/fail/migrate/policy change).
	idx *placeIndex
	// track records which export chunks the mutation paths dirtied
	// since the last ExportFlat; server IDs double as fleet indices
	// (New assigns ID = i), so marking by ID marks the export row.
	track *cow.Tracker
	// placedCount / vcoresAlloc / pcoresLive are the Stats() packing
	// KPIs maintained incrementally (failed servers excluded), so
	// PlacedVMs and Density are O(1) reads instead of fleet scans.
	placedCount int
	vcoresAlloc int
	pcoresLive  int
	// Rejected counts placement failures.
	Rejected int
}

// New builds a cluster of n servers, reserving the policy's buffer
// fraction as failover capacity. The host table stores server indices
// as int32, so n must not exceed math.MaxInt32.
func New(spec ServerSpec, policy Policy, n int) *Cluster {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("cluster: %d servers exceed the %d-server limit", n, math.MaxInt32))
	}
	c := &Cluster{Spec: spec, Policy: policy, hosts: newHostTable()}
	reserve := int(float64(n) * policy.BufferFraction)
	for i := 0; i < n; i++ {
		s := &Server{ID: i, Spec: spec}
		if i >= n-reserve {
			s.Reserved = true
		}
		c.servers = append(c.servers, s)
		c.pcoresLive += spec.PCores
	}
	c.track = cow.NewTracker(n, 0)
	c.rebuildIndex()
	return c
}

// SetExportChunkShift re-chunks the flat export at 1<<shift servers
// per chunk (shift 0 restores the default). Test hook for exercising
// the COW machinery at small chunk sizes; call it before the first
// ExportFlat — it resets dirty tracking, and a Flat filled under the
// old geometry is fully re-materialized on its next export.
func (c *Cluster) SetExportChunkShift(shift uint) {
	c.track = cow.NewTracker(len(c.servers), shift)
}

// PlacedVMs returns the number of VMs placed on non-failed servers,
// maintained incrementally — the Stats().PlacedVMs value as an O(1)
// read.
func (c *Cluster) PlacedVMs() int { return c.placedCount }

// Density returns allocated vcores per available pcore, maintained
// incrementally — the Stats().Density value as an O(1) read (same
// integer division, so the float is bit-identical).
func (c *Cluster) Density() float64 {
	if c.pcoresLive > 0 {
		return float64(c.vcoresAlloc) / float64(c.pcoresLive)
	}
	return 0
}

// Servers returns the fleet.
func (c *Cluster) Servers() []*Server { return c.servers }

// SetOversubRatio changes the CPU oversubscription policy at runtime.
// The virtual-buffer use-case (Figure 6) runs the fleet 1:1 during
// normal operation and enables overclocking-backed oversubscription
// only to absorb failover.
func (c *Cluster) SetOversubRatio(r float64) {
	if r < 0 {
		r = 0
	}
	c.Policy.CPUOversubRatio = r
	// The vcore cap re-keys every server's headroom at once.
	c.rebuildIndex()
}

// fits reports whether v fits on s under the policy.
func (c *Cluster) fits(s *Server, v *vm.VM, useReserved bool) bool {
	return c.explain(s, v, useReserved) == ""
}

// Placement-failure reasons served by the control-plane filter API.
// The vocabulary is a small fixed set of interned constants so
// rejection-heavy filter responses reference them instead of
// allocating one string per server.
const (
	// ReasonFailed covers failed or reserved hardware.
	ReasonFailed = "failed"
	// ReasonMemory is a memory-capacity rejection.
	ReasonMemory = "memory"
	// ReasonCapacity is a vcore-cap rejection.
	ReasonCapacity = "capacity"
	// ReasonClass is a high-performance VM without guaranteed
	// overclock headroom.
	ReasonClass = "class"
)

// Explain reports why v cannot be placed on s under the policy, as the
// machine-readable reason the control-plane filter API serves (the
// Reason* constants). An empty reason means v fits.
func (c *Cluster) Explain(s *Server, v *vm.VM) string {
	return c.explain(s, v, false)
}

func (c *Cluster) explain(s *Server, v *vm.VM, useReserved bool) string {
	if s.Failed || (s.Reserved && !useReserved) {
		return ReasonFailed
	}
	if s.memUse+v.Type.MemoryGB > s.Spec.MemoryGB {
		return ReasonMemory
	}
	if s.vcoresUse+v.Type.VCores > c.idx.capV {
		return ReasonCapacity
	}
	// High-performance VMs need overclocking headroom guaranteed:
	// only non-oversubscribed overclockable servers qualify.
	if v.Class == vm.HighPerf {
		if !s.Spec.Overclockable {
			return ReasonClass
		}
		if s.vcoresUse+v.Type.VCores > s.Spec.PCores {
			return ReasonClass
		}
	}
	return ""
}

// Place assigns v to a server using best-fit on remaining vcores
// (ties broken by server ID), mirroring production packers that
// consolidate load to keep empty servers for large VMs. Returns the
// chosen server or an error when no server fits.
func (c *Cluster) Place(v *vm.VM) (*Server, error) {
	return c.place(v, false)
}

// ErrAlreadyPlaced is returned by Place for a VM whose ID is already
// placed; the cluster is left untouched.
var ErrAlreadyPlaced = errors.New("cluster: VM already placed")

func (c *Cluster) place(v *vm.VM, useReserved bool) (*Server, error) {
	if _, dup := c.hosts.get(v.ID); dup {
		return nil, ErrAlreadyPlaced
	}
	var best *Server
	if useReserved {
		// Reserved capacity lives outside the index; the recovery path
		// keeps the linear best-fit over the whole fleet.
		bestLeft := 1 << 30
		for _, s := range c.servers {
			if !c.fits(s, v, useReserved) {
				continue
			}
			left := c.idx.capV - s.vcoresUse - v.Type.VCores
			if left < bestLeft || (left == bestLeft && best != nil && s.ID < best.ID) {
				best, bestLeft = s, left
			}
		}
	} else {
		best = c.placeIndexed(v)
	}
	if best == nil {
		c.Rejected++
		return nil, fmt.Errorf("cluster: no server fits VM %d (%d vcores, %.0f GB)", v.ID, v.Type.VCores, v.Type.MemoryGB)
	}
	oldR := c.headroom(best)
	best.attach(v)
	c.hosts.set(v.ID, int32(best.ID))
	c.placedCount++
	c.vcoresAlloc += v.Type.VCores
	c.track.Mark(best.ID)
	if c.indexed(best) {
		c.idx.move(best.ID, oldR, c.headroom(best))
	}
	return best, nil
}

// placeIndexed finds the best-fit server through the headroom index:
// buckets scanned in ascending remaining-vcore order (= ascending
// "left" for a fixed VM), bits within a bucket in ascending ID order,
// so the first candidate that passes explain() is exactly the server
// the linear scan would pick.
func (c *Cluster) placeIndexed(v *vm.VM) *Server {
	want := v.Type.VCores
	minR := want
	if v.Class == vm.HighPerf {
		if !c.Spec.Overclockable {
			// A uniform fleet without overclock headroom can never
			// host a high-performance VM.
			return nil
		}
		// The class constraint vcoresUse + want ≤ PCores rewritten in
		// headroom terms: r ≥ want + (capV − PCores). Buckets below
		// that would be rejected by explain one by one; skip them.
		if over := c.idx.capV - c.Spec.PCores; over > 0 {
			minR = want + over
		}
	}
	var best *Server
	c.idx.scan(minR, func(id int) bool {
		s := c.servers[id]
		if c.explain(s, v, false) != "" {
			return false
		}
		best = s
		return true
	})
	return best
}

// Host returns the server currently hosting VM id, if it is placed.
func (c *Cluster) Host(id int) (*Server, bool) {
	i, ok := c.hosts.get(id)
	if !ok {
		return nil, false
	}
	return c.servers[i], true
}

// errNotPlaced is Remove's error for a VM that is not placed.
var errNotPlaced = errors.New("cluster: VM not placed")

// Remove releases a VM's resources: RemoveID(v.ID).
func (c *Cluster) Remove(v *vm.VM) error {
	if _, ok := c.RemoveID(v.ID); !ok {
		return errNotPlaced
	}
	return nil
}

// RemoveID releases the VM placed under id and returns the server that
// hosted it, or false when no such VM is placed. The accounting uses
// the placed VM's own shape.
func (c *Cluster) RemoveID(id int) (*Server, bool) {
	i, ok := c.hosts.del(id)
	if !ok {
		return nil, false
	}
	s := c.servers[i]
	oldR := c.headroom(s)
	v := s.detach(id)
	c.placedCount--
	c.vcoresAlloc -= v.Type.VCores
	c.track.Mark(s.ID)
	if c.indexed(s) {
		c.idx.move(s.ID, oldR, c.headroom(s))
	}
	return s, true
}

// Stats summarizes fleet utilization.
type Stats struct {
	Servers, FailedServers, ReservedServers int
	PlacedVMs                               int
	VCoresAllocated, PCoresTotal            int
	// Density is allocated vcores per available pcore.
	Density float64
	// VMsPerActiveServer is mean VMs per non-empty server.
	VMsPerActiveServer float64
	OversubscribedSrv  int
}

// Stats computes current fleet statistics.
func (c *Cluster) Stats() Stats {
	st := Stats{Servers: len(c.servers)}
	active := 0
	for _, s := range c.servers {
		if s.Failed {
			st.FailedServers++
			continue
		}
		if s.Reserved {
			st.ReservedServers++
		}
		st.PCoresTotal += s.Spec.PCores
		st.VCoresAllocated += s.vcoresUse
		st.PlacedVMs += len(s.vms)
		if len(s.vms) > 0 {
			active++
		}
		if s.Oversubscribed() {
			st.OversubscribedSrv++
		}
	}
	if st.PCoresTotal > 0 {
		st.Density = float64(st.VCoresAllocated) / float64(st.PCoresTotal)
	}
	if active > 0 {
		st.VMsPerActiveServer = float64(st.PlacedVMs) / float64(active)
	}
	return st
}

// FailServers marks n servers (highest VM counts first, emulating a
// rack/row failure hitting loaded machines) as failed and returns the
// VMs that must be re-created.
func (c *Cluster) FailServers(n int) []*vm.VM {
	candidates := make([]*Server, 0, len(c.servers))
	for _, s := range c.servers {
		if !s.Failed && !s.Reserved {
			candidates = append(candidates, s)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if len(candidates[i].vms) != len(candidates[j].vms) {
			return len(candidates[i].vms) > len(candidates[j].vms)
		}
		return candidates[i].ID < candidates[j].ID
	})
	if n > len(candidates) {
		n = len(candidates)
	}
	var displaced []*vm.VM
	for _, s := range candidates[:n] {
		// Drop the server from the placement index while its headroom
		// is still well-defined; failed servers never come back.
		c.idx.remove(s.ID, c.headroom(s))
		s.Failed = true
		c.placedCount -= len(s.vms)
		c.vcoresAlloc -= s.vcoresUse
		c.pcoresLive -= s.Spec.PCores
		c.track.Mark(s.ID)
		for i, e := range s.vms {
			displaced = append(displaced, e.v)
			c.hosts.del(e.id)
			s.vms[i] = vmSlot{}
		}
		s.vms = s.vms[:0]
		s.vcoresUse = 0
		s.memUse = 0
		s.expDemand = 0
	}
	return displaced
}

// Recover re-places displaced VMs. With a static buffer, reserved
// servers open up; with an overclocking-backed virtual buffer, the
// surviving servers absorb the VMs through oversubscription + OC.
// Returns the number successfully re-created.
func (c *Cluster) Recover(displaced []*vm.VM) int {
	ok := 0
	for _, v := range displaced {
		if _, err := c.place(v, true); err == nil {
			ok++
		}
	}
	return ok
}

// PackTrace replays a VM arrival/departure trace through the cluster
// and returns the peak density plus the rejection count.
func (c *Cluster) PackTrace(trace []*vm.VM) (peakDensity float64, rejected int) {
	for _, ev := range vm.Events(trace) {
		if ev.Arrival {
			if _, err := c.Place(ev.VM); err != nil {
				rejected++
			}
			if d := c.Stats().Density; d > peakDensity {
				peakDensity = d
			}
		} else {
			c.RemoveID(ev.VM.ID) // rejected at arrival → not placed
		}
	}
	return peakDensity, rejected
}

// Migration is one planned VM move.
type Migration struct {
	VM   *vm.VM
	From *Server
	To   *Server
}

// PlanMigrations builds a live-migration plan that relieves
// oversubscribed servers (§V: overclocking is "a stop-gap solution to
// performance loss until live VM migration ... can eliminate the
// problem completely"). Up to maxMoves VMs are moved from
// oversubscribed servers to servers with 1:1 headroom, smallest VMs
// first (live migration cost grows with VM memory). The plan is
// returned without being applied.
func (c *Cluster) PlanMigrations(maxMoves int) []Migration {
	var plan []Migration
	for _, s := range c.servers {
		if s.Failed || !s.Oversubscribed() {
			continue
		}
		over := s.vcoresUse - s.Spec.PCores
		vms := s.VMsList()
		// Smallest first: cheapest moves that still relieve pressure.
		sort.Slice(vms, func(i, j int) bool {
			if vms[i].Type.VCores != vms[j].Type.VCores {
				return vms[i].Type.VCores < vms[j].Type.VCores
			}
			return vms[i].ID < vms[j].ID
		})
		for _, v := range vms {
			if over <= 0 || len(plan) >= maxMoves {
				break
			}
			dst := c.findHeadroom(s, v)
			if dst == nil {
				continue
			}
			plan = append(plan, Migration{VM: v, From: s, To: dst})
			over -= v.Type.VCores
			// Reserve the destination capacity while planning.
			dst.vcoresUse += v.Type.VCores
			dst.memUse += v.Type.MemoryGB
		}
	}
	// Release the planning reservations; Apply re-places for real.
	for _, m := range plan {
		m.To.vcoresUse -= m.VM.Type.VCores
		m.To.memUse -= m.VM.Type.MemoryGB
	}
	return plan
}

// findHeadroom returns a destination with 1:1 headroom for v, best-fit,
// excluding src.
func (c *Cluster) findHeadroom(src *Server, v *vm.VM) *Server {
	var best *Server
	bestLeft := 1 << 30
	for _, s := range c.servers {
		if s == src || s.Failed || s.Reserved {
			continue
		}
		if s.vcoresUse+v.Type.VCores > s.Spec.PCores {
			continue
		}
		if s.memUse+v.Type.MemoryGB > s.Spec.MemoryGB {
			continue
		}
		left := s.Spec.PCores - s.vcoresUse - v.Type.VCores
		if left < bestLeft || (left == bestLeft && best != nil && s.ID < best.ID) {
			best, bestLeft = s, left
		}
	}
	return best
}

// ApplyMigrations executes a plan, returning how many moves succeeded.
// A move is skipped when its plan has gone stale: the VM is no longer
// placed on From (removed, failed over or moved since planning), or the
// destination has filled.
func (c *Cluster) ApplyMigrations(plan []Migration) int {
	done := 0
	for _, m := range plan {
		if i, ok := c.hosts.get(m.VM.ID); !ok || c.servers[i] != m.From {
			continue
		}
		if m.To.Failed ||
			m.To.vcoresUse+m.VM.Type.VCores > m.To.Spec.PCores ||
			m.To.memUse+m.VM.Type.MemoryGB > m.To.Spec.MemoryGB {
			continue
		}
		fromR, toR := c.headroom(m.From), c.headroom(m.To)
		m.To.attach(m.From.detach(m.VM.ID))
		c.hosts.set(m.VM.ID, int32(m.To.ID))
		// Both endpoints are live, so the packing KPIs are unchanged;
		// only the export rows move.
		c.track.Mark(m.From.ID)
		c.track.Mark(m.To.ID)
		if c.indexed(m.From) {
			c.idx.move(m.From.ID, fromR, c.headroom(m.From))
		}
		if c.indexed(m.To) {
			c.idx.move(m.To.ID, toR, c.headroom(m.To))
		}
		done++
	}
	return done
}

// InterferenceRisk estimates, for each oversubscribed server, whether
// overclocking covers the expected concurrent demand: the sum of
// per-VM average utilizations must not exceed pcores × OCSpeedup.
// Returns the number of servers whose expected demand exceeds even the
// overclocked capacity.
func (c *Cluster) InterferenceRisk() int {
	atRisk := 0
	for _, s := range c.servers {
		if s.Failed || !s.Oversubscribed() {
			continue
		}
		demand := s.ExpectedDemand()
		capacity := float64(s.Spec.PCores)
		if s.Spec.Overclockable {
			capacity *= s.Spec.OCSpeedup
		}
		if demand > capacity {
			atRisk++
		}
	}
	return atRisk
}
