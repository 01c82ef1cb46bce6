// Package dcsim is the full-stack integration simulation: a fleet of
// immersion tanks replays a VM arrival trace through the cluster
// placer, an overclocking governor policy decides per-server clocks to
// absorb oversubscription, tanks integrate the resulting heat through
// their condensers, a row feeder enforces the power-delivery budget by
// cancelling the lowest-value overclocks, and every overclocked hour
// accrues wear against the lifetime budget.
//
// It is the "everything wired together" demonstration a control-plane
// operator would run before turning the paper's techniques on in
// production: the same models that reproduce the paper's tables, now
// interacting.
//
// The simulation is exposed two ways. Run/RunCtx execute a closed
// trace-driven batch run (the paper's evaluation). Sim is the same
// machine opened up step by step: New builds the fleet, Step advances
// one control period, and Place/Remove/SetOverclock let an external
// control plane — the ocd daemon — drive arrivals and overclock grants
// between steps. Both paths share one policy implementation: the grant
// / tank-admission / feeder-capping decisions are delegated to a
// placement.Decider (the paper's governor by default), so API-served
// decisions and batch KPIs cannot fork.
//
// The control loop is engineered to cost O(changed state) per step
// rather than O(fleet size × placed VMs): per-server expected demand
// is maintained incrementally by the cluster, per-server power is
// cached and folded into a running row-power sum by deltas, hazard
// rates come from a fleet-shared quantized cache, and all per-step
// scratch lives in a reusable step context. See DESIGN.md ("Fleet
// control-plane performance") for the invariants.
package dcsim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"immersionoc/internal/cluster"
	"immersionoc/internal/cow"
	"immersionoc/internal/freq"
	"immersionoc/internal/placement"
	"immersionoc/internal/power"
	"immersionoc/internal/reliability"
	"immersionoc/internal/stats"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/thermal"
	"immersionoc/internal/vm"
)

// Config parameterizes a fleet run.
type Config struct {
	// Servers is the fleet size; ServersPerTank groups them into
	// tanks (the last tank may be partial).
	Servers, ServersPerTank int
	// OversubRatio is the CPU oversubscription the placer may use.
	OversubRatio float64
	// FeederBudgetW is the row's power-delivery limit (0 = no limit).
	FeederBudgetW float64
	// Trace generates the VM workload; its DurationS is the run
	// horizon even when Events overrides the generated trace.
	Trace vm.TraceConfig
	// Events, when non-nil, replaces the trace generated from Trace —
	// a prebuilt arrival/departure stream (vm.Events order), or an
	// empty non-nil slice for an open-loop run driven entirely through
	// Sim.Place/Remove (the daemon path).
	Events []vm.Event
	// StepS is the control-loop period in trace seconds.
	StepS float64
	// OverclockThreshold is the expected-demand/pcores ratio above
	// which a server requests an overclock. Expected demand is the
	// long-run mean; bursts run ~2× above it, so a server whose mean
	// demand exceeds half its cores will contend during bursts —
	// that is the regime overclocking absorbs (Figure 12).
	OverclockThreshold float64
	// Decider, when non-nil, replaces the built-in governor policy.
	// The default is a placement.Governor configured from this Config
	// (Equation 1 threshold, per-tank condenser budgets, feeder cap).
	Decider placement.Decider
	// Shards partitions the fleet by tank into that many contiguous
	// slices stepped concurrently under the process-wide sweep budget
	// (clamped to [1, tanks]; ≤ 1 keeps the serial inline path). KPIs
	// are byte-stable at every shard count — see internal/dcsim/shard.go
	// for the ordered delta-replay barrier that guarantees it.
	Shards int
	// SnapshotChunkShift re-chunks the snapshot's per-server COW
	// columns at 1<<shift servers per chunk (0 = the cow package
	// default of 1024). Test hook: small chunks exercise the
	// copy-on-write machinery on small fleets.
	SnapshotChunkShift uint
	// Tel, when non-nil, receives the run's telemetry: the control
	// step counter, row power / bath temperature gauges with running
	// peaks, and counters for rejections, cap events and cancelled
	// overclocks.
	Tel *telemetry.Scope
}

// DefaultConfig is a 3-tank row under moderate load.
func DefaultConfig() Config {
	trace := vm.DefaultTrace
	trace.ArrivalRatePerS = 0.01
	trace.DurationS = 2 * 24 * 3600
	trace.MeanLifetimeS = 10 * 3600
	return Config{
		Servers:            36,
		ServersPerTank:     12,
		OversubRatio:       0.25,
		FeederBudgetW:      12500,
		Trace:              trace,
		StepS:              300,
		OverclockThreshold: 0.5,
	}
}

// BladeServer is the per-blade power model (2 × 24-core sockets).
var BladeServer = power.ServerModel{
	PlatformW:    60,
	UncoreRefW:   40,
	MemRefW:      44,
	CorePerGHzV2: 1.75,
	CoreActiveW:  0.9,
	CoreParkedW:  0.25,
	TotalCores:   48,
	Curve:        power.XeonW3175XCurve,
}

// Report carries the run's KPIs.
type Report struct {
	// PeakDensity is the highest vcores/pcore reached.
	PeakDensity float64
	// Rejected counts denied VM arrivals.
	Rejected int
	// MaxBathC is the hottest any tank's bath got.
	MaxBathC float64
	// PeakOverclocked is the most servers overclocked at once.
	PeakOverclocked int
	// TotalGrants sums the per-step surviving overclock grants — the
	// cumulative grant count the control-plane equivalence checks pin.
	TotalGrants int
	// OverclockServerHours integrates overclocked servers over time.
	OverclockServerHours float64
	// CapEvents counts steps where the feeder budget forced
	// overclocks to be cancelled.
	CapEvents int
	// CancelledOverclocks counts overclocks revoked by the feeder.
	CancelledOverclocks int
	// MeanWearUsed is the fleet-average fraction of the pro-rata
	// wear budget consumed (1.0 = wearing exactly at the 5-year
	// schedule).
	MeanWearUsed float64
	// PowerW, BathC, Overclocked and Density are time series.
	PowerW, BathC, Overclocked, Density *stats.Series
	// InterferenceAtRisk counts step observations where an
	// oversubscribed server's demand exceeded even overclocked
	// capacity.
	InterferenceAtRisk int
}

// Per-server heat-model constants: idle floor and the demand-scaled
// span up to the nominal/overclocked envelope.
const (
	idleHeatW      = 200.0
	nominalHeatW   = 658.0
	overclockHeatW = 858.0
	nominalTjRiseC = 16.0
	ocTjRiseC      = 24.0
)

type serverState struct {
	srv   *cluster.Server
	tank  int
	oc    bool
	wear  *reliability.WearMeter
	hours float64

	// Loop invariants, hoisted so the hot path reads fields instead
	// of re-deriving them every step.
	pcores float64 // float64(srv.Spec.PCores)
	ocCap  float64 // pcores × OCSpeedup (interference-at-risk bound)

	// Power cache. powerNomW/powerOCW hold the blade's power at the
	// nominal (B2) and overclocked (OC1) configurations for the
	// demand/vcores pair they were computed at; they are refreshed
	// only when the cluster's incremental state for this server
	// changes, and the row-power running sum is updated by the delta.
	lastDemand float64
	lastVCores int
	powerNomW  float64
	powerOCW   float64
}

// current returns the cached power at the server's current clock.
func (st *serverState) current() float64 {
	if st.oc {
		return st.powerOCW
	}
	return st.powerNomW
}

// stepContext holds every piece of per-step scratch the control loop
// needs, allocated once per run and reused across steps, plus the
// incrementally maintained row-power sum. It is the placement.Actuator
// the decider toggles grants through: SetOverclock folds the clock
// change into the running sum, so the decider's feeder loop reads
// RowPowerW instead of recomputing the fleet.
type stepContext struct {
	states []*serverState
	heat   []float64 // per-tank heat input, reset each step
	// tankBudget holds the per-tank condenser budgets (loop-invariant).
	tankBudget []int
	// ocPerTank counts the servers currently overclocked in each tank,
	// maintained on every clock toggle so the control plane's per-tank
	// status reads are O(1) instead of a fleet scan. During phase 1
	// each element is written only by the shard owning its tank.
	ocPerTank []int
	// ocTotal is Σ ocPerTank, maintained alongside it so the fleet-wide
	// Overclocked KPI is an O(1) read instead of an O(tanks) recount.
	// Phase 1's clock resets accumulate per-shard deltas (shard.ocDelta)
	// that the serial barrier folds in.
	ocTotal int
	// ocGen / bathGen are snapshot-invalidation generations: ocGen
	// advances whenever any clock may have toggled, bathGen whenever a
	// step integrated the tanks. Snapshot shares its per-tank columns
	// with the previous export while the generation is unchanged.
	ocGen, bathGen uint64
	// rowPowerW is Σ current per-server power, updated by deltas when
	// a server's demand/allocation changes or its clock toggles.
	rowPowerW float64
}

var _ placement.Actuator = (*stepContext)(nil)

// refreshPower re-derives the cached nominal/overclocked power for a
// server whose cluster state changed and folds the delta into the
// row-power running sum.
func (sc *stepContext) refreshPower(st *serverState) {
	d, vc := st.srv.ExpectedDemand(), st.srv.VCoresUsed()
	if d == st.lastDemand && vc == st.lastVCores {
		return
	}
	old := st.current()
	st.lastDemand, st.lastVCores = d, vc
	st.powerNomW = BladeServer.Power(freq.B2, d, vc)
	st.powerOCW = BladeServer.Power(freq.OC1, d, vc)
	sc.rowPowerW += st.current() - old
}

// setOC toggles a server's clock and folds the power delta into the
// row sum.
func (sc *stepContext) setOC(st *serverState, oc bool) {
	if st.oc == oc {
		return
	}
	st.oc = oc
	sc.ocGen++
	if oc {
		sc.ocPerTank[st.tank]++
		sc.ocTotal++
		sc.rowPowerW += st.powerOCW - st.powerNomW
	} else {
		sc.ocPerTank[st.tank]--
		sc.ocTotal--
		sc.rowPowerW += st.powerNomW - st.powerOCW
	}
}

// SetOverclock implements placement.Actuator.
func (sc *stepContext) SetOverclock(index int, oc bool) {
	sc.setOC(sc.states[index], oc)
}

// RowPowerW implements placement.Actuator.
func (sc *stepContext) RowPowerW() float64 { return sc.rowPowerW }

// simMetrics are the telemetry handles, hoisted out of the step loop
// (nil no-ops when the config carries no scope).
type simMetrics struct {
	steps, rejected, capEvents, cancelledOC      *telemetry.Counter
	power, peakPower, bath, peakBath, tj, peakTj *telemetry.Gauge
	overclocked                                  *telemetry.Gauge
}

// Sim is the fleet simulation opened up for stepwise control. New
// builds the fleet at time zero; Step advances one control period
// (trace replay where the config carries events, overclock decisions,
// thermal integration, wear accrual, KPI capture). Between steps an
// external control plane may Place and Remove VMs and toggle overclock
// grants — the next Step folds those changes in through the same
// incremental accounting the batch path uses. Sim is not safe for
// concurrent use; the daemon serializes access.
type Sim struct {
	cfg    Config
	cl     *cluster.Cluster
	tanks  []*thermal.Tank
	states []*serverState
	sc     *stepContext
	shards []*shard
	dec    placement.Decider
	rep    *Report
	events []vm.Event
	ei     int
	t      float64
	m      simMetrics

	// wearTrack drives the snapshot's wear-column COW: steps mark the
	// whole fleet (every server accrues wear each step), everything
	// else leaves the columns shareable.
	wearTrack *cow.Tracker
	// wearStale gates the Report() MeanWearUsed recompute: wear moves
	// only in step phase 2, so between steps the cached mean is exact
	// and Report is O(1).
	wearStale bool
}

// New validates cfg and builds the fleet at simulated time zero.
func New(cfg Config) (*Sim, error) {
	if cfg.Servers <= 0 || cfg.ServersPerTank <= 0 {
		return nil, errors.New("dcsim: need positive fleet and tank sizes")
	}
	if cfg.StepS <= 0 {
		return nil, errors.New("dcsim: need positive step")
	}
	if cfg.OverclockThreshold <= 0 {
		cfg.OverclockThreshold = 0.5
	}

	cl := cluster.New(cluster.TwoSocketBlade, cluster.Policy{CPUOversubRatio: cfg.OversubRatio}, cfg.Servers)
	if cfg.SnapshotChunkShift != 0 {
		cl.SetExportChunkShift(cfg.SnapshotChunkShift)
	}
	nTanks := (cfg.Servers + cfg.ServersPerTank - 1) / cfg.ServersPerTank
	tanks := make([]*thermal.Tank, nTanks)
	for i := range tanks {
		tanks[i] = thermal.LargeTank()
		if err := tanks[i].Validate(); err != nil {
			return nil, err
		}
	}

	states := make([]*serverState, cfg.Servers)
	for i, s := range cl.Servers() {
		states[i] = &serverState{
			srv:    s,
			tank:   i / cfg.ServersPerTank,
			wear:   reliability.NewWearMeter(reliability.Composite5nm, reliability.ServiceLifeYears),
			pcores: float64(s.Spec.PCores),
			ocCap:  float64(s.Spec.PCores) * s.Spec.OCSpeedup,
		}
	}

	// Shards partition the fleet by tank; each gets its own quantized
	// hazard cache, because the cache memoizes through a plain map (not
	// safe for concurrent use) while its values depend only on the
	// queried condition — within a shard all servers of a tank accrue
	// wear at one of two conditions (nominal or overclocked at the
	// tank's bath), so the Arrhenius and Coffin–Manson evaluations
	// still amortize across the shard's row slice.
	nShards := cfg.Shards
	if nShards < 1 {
		nShards = 1
	}
	if nShards > nTanks {
		nShards = nTanks
	}
	shards := newShards(nShards, nTanks, cfg.ServersPerTank, cfg.Servers)
	for _, sh := range shards {
		hazards := reliability.NewHazardCache(reliability.Composite5nm)
		for _, st := range states[sh.s0:sh.s1] {
			st.wear.SetHazardCache(hazards)
		}
	}

	events := cfg.Events
	if events == nil {
		events = vm.Events(vm.Generate(cfg.Trace))
	}
	nSteps := int(math.Ceil(cfg.Trace.DurationS/cfg.StepS)) + 1
	rep := &Report{
		PowerW:      stats.NewSeriesCap("row-power", nSteps),
		BathC:       stats.NewSeriesCap("max-bath", nSteps),
		Overclocked: stats.NewSeriesCap("overclocked", nSteps),
		Density:     stats.NewSeriesCap("density", nSteps),
	}

	// Step context: per-step scratch allocated once, the per-tank
	// condenser budgets computed once (they depend only on tank
	// geometry, not tank state), and the row-power running sum seeded
	// from the idle fleet.
	sc := &stepContext{
		states:     states,
		heat:       make([]float64, nTanks),
		tankBudget: make([]int, nTanks),
		ocPerTank:  make([]int, nTanks),
		ocGen:      1,
		bathGen:    1,
	}
	for i, tk := range tanks {
		n := cfg.ServersPerTank
		if rem := cfg.Servers - i*cfg.ServersPerTank; rem < n {
			n = rem
		}
		sc.tankBudget[i] = tk.OverclockBudget(n, nominalHeatW, overclockHeatW)
	}
	for _, st := range states {
		st.powerNomW = BladeServer.Power(freq.B2, 0, 0)
		st.powerOCW = BladeServer.Power(freq.OC1, 0, 0)
		sc.rowPowerW += st.powerNomW
	}

	dec := cfg.Decider
	if dec == nil {
		dec = &placement.Governor{
			Thresh:        cfg.OverclockThreshold,
			TankBudget:    sc.tankBudget,
			FeederBudgetW: cfg.FeederBudgetW,
		}
	}

	return &Sim{
		cfg:       cfg,
		cl:        cl,
		tanks:     tanks,
		states:    states,
		sc:        sc,
		shards:    shards,
		dec:       dec,
		rep:       rep,
		events:    events,
		wearTrack: cow.NewTracker(cfg.Servers, cfg.SnapshotChunkShift),
		wearStale: true,
		m: simMetrics{
			steps:       cfg.Tel.Counter("steps"),
			rejected:    cfg.Tel.Counter("rejected"),
			capEvents:   cfg.Tel.Counter("cap_events"),
			cancelledOC: cfg.Tel.Counter("cancelled_overclocks"),
			power:       cfg.Tel.Gauge("row_power_w"),
			peakPower:   cfg.Tel.Gauge("peak_row_power_w"),
			bath:        cfg.Tel.Gauge("bath_c"),
			peakBath:    cfg.Tel.Gauge("peak_bath_c"),
			tj:          cfg.Tel.Gauge("tj_c"),
			peakTj:      cfg.Tel.Gauge("peak_tj_c"),
			overclocked: cfg.Tel.Gauge("overclocked"),
		},
	}, nil
}

// Now returns the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.t }

// Done reports whether the run has reached the configured horizon.
// The daemon may keep stepping past it; the batch path stops here.
func (s *Sim) Done() bool { return s.t >= s.cfg.Trace.DurationS }

// Cluster exposes the fleet's placement state.
func (s *Sim) Cluster() *cluster.Cluster { return s.cl }

// Decider returns the policy deciding overclock grants.
func (s *Sim) Decider() placement.Decider { return s.dec }

// Place routes a VM arrival through the cluster placer with the same
// rejection accounting the trace-replay path uses. A VM whose ID is
// already placed is refused with cluster.ErrAlreadyPlaced and is not a
// capacity rejection.
func (s *Sim) Place(v *vm.VM) (*cluster.Server, error) {
	srv, err := s.cl.Place(v)
	if err != nil && !errors.Is(err, cluster.ErrAlreadyPlaced) {
		s.rep.Rejected++
		s.m.rejected.Inc()
	}
	return srv, err
}

// Remove releases a VM placed earlier. Departures of VMs that were
// rejected at arrival are ignored, matching trace replay.
func (s *Sim) Remove(v *vm.VM) { s.RemoveID(v.ID) }

// RemoveID releases the VM placed under id and returns the server that
// hosted it, or false when no such VM is placed.
func (s *Sim) RemoveID(id int) (*cluster.Server, bool) { return s.cl.RemoveID(id) }

// Step executes one control step at the current simulated time, then
// advances the clock by the configured period. It is StepCtx without
// cancellation; the only failure left is a panicking shard cell, which
// is re-raised rather than swallowed.
func (s *Sim) Step() {
	if err := s.StepCtx(context.Background()); err != nil {
		panic(fmt.Sprintf("dcsim: step failed: %v", err))
	}
}

// StepCtx executes one control step under ctx. With Shards > 1 the
// parallel phases run through sweep.Map, which observes ctx between
// cells; a non-nil error means the step was abandoned mid-flight and
// the simulation must not be stepped further (batch runs return the
// error, the daemon only ever steps with a background context).
func (s *Sim) StepCtx(ctx context.Context) error {
	cfg := &s.cfg
	sc := s.sc
	rep := s.rep
	t := s.t
	s.m.steps.Inc()

	// Replay trace events due this step. The cluster maintains
	// per-server expected demand incrementally, so the step's cost
	// below tracks the number of servers these events touched.
	for s.ei < len(s.events) && s.events[s.ei].TimeS <= t {
		ev := s.events[s.ei]
		s.ei++
		if ev.Arrival {
			_, _ = s.Place(ev.VM)
		} else {
			s.Remove(ev.VM) // not placed → ignore
		}
	}

	// Phase 1 (parallel): per shard, refresh the power caches of
	// servers whose allocations changed and return every clock to
	// nominal, recording the row-power deltas in server order.
	if err := s.runShards(ctx, func(sh *shard) { sh.phase1(sc) }); err != nil {
		return err
	}

	// Barrier (serial): replay the recorded deltas shard by shard —
	// fleet order, the exact addition sequence the serial loop ran —
	// then drive the one Decider pass over the aggregated fleet
	// (Equation 1 threshold, tank admission, feeder capping — see
	// internal/placement). Grants and cancellations actuate through
	// the step context, which scatters the clock changes back onto
	// the shard-owned server states.
	for _, sh := range s.shards {
		for _, a := range sh.addends {
			sc.rowPowerW += a
		}
		sc.ocTotal += sh.ocDelta
	}
	s.dec.Begin(len(s.tanks))
	for i, st := range s.states {
		d := st.lastDemand
		s.dec.Offer(placement.Candidate{
			Index:       i,
			ID:          st.srv.ID,
			Tank:        st.tank,
			DemandCores: d,
			PCores:      st.pcores,
		})
		if d > st.ocCap {
			rep.InterferenceAtRisk++
		}
	}
	out := s.dec.Decide(sc)
	granted := out.Granted
	if out.Capped {
		rep.CapEvents++
		s.m.capEvents.Inc()
	}
	rep.CancelledOverclocks += out.Cancelled
	s.m.cancelledOC.Add(uint64(out.Cancelled))

	// Phase 2 (parallel): per shard, tank heat accumulation (idle
	// servers scale down — power follows demand), condenser
	// integration, and wear accrual at the stepped bath.
	if err := s.runShards(ctx, func(sh *shard) { sh.phase2(s) }); err != nil {
		return err
	}
	maxBath := 0.0
	for _, sh := range s.shards {
		if sh.maxBath > maxBath {
			maxBath = sh.maxBath
		}
	}
	if maxBath > rep.MaxBathC {
		rep.MaxBathC = maxBath
	}
	hours := cfg.StepS / 3600

	// Snapshot invalidation: phase 1 may have reset clocks (ocGen also
	// advances on every setOC), phase 2 integrated every tank and
	// accrued wear on every server, and the cached mean wear is stale.
	sc.ocGen++
	sc.bathGen++
	s.wearTrack.MarkAll()
	s.wearStale = true

	// KPIs. Density reads the cluster's incremental counters — the
	// same integer division Stats() runs, so the value is bit-identical
	// without the O(servers) scan.
	density := s.cl.Density()
	if density > rep.PeakDensity {
		rep.PeakDensity = density
	}
	if granted > rep.PeakOverclocked {
		rep.PeakOverclocked = granted
	}
	rep.TotalGrants += granted
	rep.OverclockServerHours += float64(granted) * hours
	p := sc.rowPowerW
	rep.PowerW.Add(t, p)
	rep.BathC.Add(t, maxBath)
	rep.Overclocked.Add(t, float64(granted))
	rep.Density.Add(t, density)
	s.m.power.Set(p)
	s.m.peakPower.SetMax(p)
	s.m.bath.Set(maxBath)
	s.m.peakBath.SetMax(maxBath)
	// Junction temperature rides the bath: +24 °C for overclocked
	// silicon, +16 °C nominal (the wear model's conditions).
	tj := maxBath + nominalTjRiseC
	if granted > 0 {
		tj = maxBath + ocTjRiseC
	}
	s.m.tj.Set(tj)
	s.m.peakTj.SetMax(tj)
	s.m.overclocked.Set(float64(granted))

	s.t = t + cfg.StepS
	return nil
}

// Report returns the run's KPIs with the fleet-average wear rate
// refreshed to the current step. Wear moves only inside Step, so the
// O(servers) mean recompute runs at most once per step — between steps
// (the mutation-heavy daemon regime) Report is O(1) off the cache.
func (s *Sim) Report() *Report {
	if s.wearStale {
		var wearSum float64
		for _, st := range s.states {
			if st.hours > 0 {
				proRata := st.hours / (reliability.ServiceLifeYears * 24 * 365)
				if proRata > 0 {
					wearSum += st.wear.Used() / proRata
				}
			}
		}
		s.rep.MeanWearUsed = wearSum / float64(len(s.states))
		s.wearStale = false
	}
	return s.rep
}

// Run executes the fleet simulation.
func Run(cfg Config) (*Report, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx executes the fleet simulation under ctx, checking for
// cancellation at every control-step boundary: a cancelled run
// returns the context error within one StepS of simulated progress
// instead of completing the trace.
func RunCtx(ctx context.Context, cfg Config) (*Report, error) {
	sim, err := New(cfg)
	if err != nil {
		return nil, err
	}
	for !sim.Done() {
		// Cancellation checkpoint: one step of the control loop is the
		// simulation's natural boundary.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sim.StepCtx(ctx); err != nil {
			return nil, err
		}
	}
	return sim.Report(), nil
}

// String summarizes a report.
func (r *Report) String() string {
	return fmt.Sprintf("peak density %.3f, rejected %d, peak OC %d, OC server-hours %.1f, max bath %.1f°C, cap events %d (%d cancelled), wear rate %.2f× schedule",
		r.PeakDensity, r.Rejected, r.PeakOverclocked, r.OverclockServerHours, r.MaxBathC, r.CapEvents, r.CancelledOverclocks, r.MeanWearUsed)
}
