package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/placement"
	"immersionoc/internal/vm"
)

// fleetConfig sizes the fleet-100k workload: a dcsim fleet replaying a
// VM arrival trace, with the benchmark feeding arrivals and departures
// through Sim.Place/Remove so placement is timed apart from the step.
type fleetConfig struct {
	Servers int
	// ArrivalsPerS is the trace's arrival rate; HorizonS the simulated
	// span of one repetition.
	ArrivalsPerS, HorizonS float64
	// Expected maps a seed to its Report().String(); a seed outside
	// the table records its report in the metadata instead.
	Expected map[uint64]string
}

const (
	serversPerTank = 12
	// feederWPerServer scales the row feeder budget with the fleet.
	feederWPerServer = 347
	// fleetLifetimeS is the trace's mean VM lifetime; the first
	// fleetWarmupS of each repetition (about one lifetime, until the
	// live-VM population is steady) run as set-up.
	fleetLifetimeS = 3600
	fleetWarmupS   = 3600
	// fleetMinReps is the least number of repetitions (each a fresh
	// set-up and a full horizon) a run makes, so that set-up and step
	// times are medians of three; more fill the window.
	fleetMinReps = 3
)

func defaultFleetConfig() fleetConfig {
	return fleetConfig{
		Servers:      100_000,
		ArrivalsPerS: 1_000_000.0 / (4 * 3600),
		HorizonS:     12 * 3600,
		Expected:     fleetExpected,
	}
}

// timedDecider is the placement.Decider decorator that times the
// decider pass of a control step: from Begin, through the fleet's
// Offer loop, to the end of Decide. It records a fleet.decide span
// under the step span the workload sets in parent.
type timedDecider struct {
	inner  placement.Decider
	tr     *tracer
	parent uint64 // current fleet.step span; 0 = do not record
	start  int64
	grants int
}

func (d *timedDecider) Begin(nTanks int) {
	d.start = d.tr.now()
	d.inner.Begin(nTanks)
}

func (d *timedDecider) Offer(c placement.Candidate) bool { return d.inner.Offer(c) }

func (d *timedDecider) Decide(act placement.Actuator) placement.Outcome {
	out := d.inner.Decide(act)
	if d.parent != 0 {
		d.tr.record(span{ID: d.tr.newID(), Parent: d.parent, Name: "fleet.decide", Start: d.start, End: d.tr.now()})
		d.grants += out.Granted
	}
	return out
}

func (d *timedDecider) Evaluate(q placement.GrantQuery) placement.Decision {
	return d.inner.Evaluate(q)
}

// fleetRep is what one repetition measured.
type fleetRep struct {
	setup    time.Duration
	steps    []float64 // ms per measured step: replay + step + snapshot
	events   int       // arrivals and departures replayed in measured steps
	grants   int       // grants in measured steps
	report   string
	decGrant int // grants the decorator saw (traced runs)
}

func runFleet(fc fleetConfig, p params, tr *tracer) (*result, error) {
	res := newResult()
	var reps []fleetRep
	start := time.Now()
	for len(reps) < fleetMinReps || time.Since(start) < p.window {
		// Collect the previous repetition's fleet and trace before the
		// next set-up, so every repetition starts from the same heap.
		runtime.GC()
		rep, err := fleetRepetition(fc, p.seed, tr)
		if err != nil {
			return nil, err
		}
		reps = append(reps, rep)
	}

	var setups []float64
	var measured, events, grants, decGrants int
	var busy float64
	for i, r := range reps {
		setups = append(setups, r.setup.Seconds())
		for _, ms := range r.steps {
			busy += ms
		}
		measured += len(r.steps)
		events += r.events
		grants += r.grants
		decGrants += r.decGrant
		res.check(r.report == reps[0].report, "fleet repetition %d report %q differs from %q", i, r.report, reps[0].report)
		res.check(len(r.steps) == len(reps[0].steps), "fleet repetition %d ran %d steps, not %d", i, len(r.steps), len(reps[0].steps))
		res.attempted += len(r.steps)
	}
	report := reps[0].report
	if want, ok := fc.Expected[p.seed]; ok {
		res.check(report == want, "fleet report for seed %d:\n got %s\nwant %s", p.seed, report, want)
	}
	res.meta["report"] = report
	res.meta["repetitions"] = len(reps)
	res.meta["setup_s_per_rep"] = setups

	// Every repetition replays the same trace, so step i does the same
	// work in each: the median over repetitions of step i filters the
	// host's millisecond stalls out of the step profile, which a p95
	// over a few hundred steps would otherwise report.
	profile := make([]float64, len(reps[0].steps))
	for i := range profile {
		xs := make([]float64, 0, len(reps))
		for _, r := range reps {
			if i < len(r.steps) {
				xs = append(xs, r.steps[i])
			}
		}
		profile[i] = median(xs)
	}
	prof := summarize(profile)
	res.ops = float64(measured)
	res.e2e["setup_s"] = median(setups)
	res.e2e["wall_ms"] = prof.Mean
	res.e2e["tail_ms"] = prof.P95
	// Throughput keeps the stalls: steps per second of stepping.
	res.e2e["rate_per_s"] = float64(measured) / (busy / 1000)

	if tr != nil {
		res.check(decGrants == grants, "decorator saw %d grants, report %d", decGrants, grants)
		ix := indexSpans(tr.snapshot())
		perStep := func(name string, self bool) float64 {
			return ix.total(name, self, time.Millisecond) / float64(measured)
		}
		res.layers["fleet.place_ms"] = perStep("fleet.place", false)
		res.layers["fleet.step_ms"] = perStep("fleet.step", true)
		res.layers["fleet.decide_ms"] = perStep("fleet.decide", false)
		res.layers["fleet.snapshot_ms"] = perStep("fleet.snapshot", false)
		res.layers["fleet.events_per_step"] = float64(events) / float64(measured)
		res.layers["fleet.grants_per_step"] = float64(grants) / float64(measured)
		for _, n := range []string{"setup.trace", "setup.sim_new", "setup.prefill"} {
			res.layers[n+"_s"] = median(ix.durations(n, false, time.Second))
		}
	}
	return res, nil
}

// fleetRepetition builds the fleet from a fresh trace, steps through
// the warm-up as set-up, then times every remaining control step.
func fleetRepetition(fc fleetConfig, seed uint64, tr *tracer) (fleetRep, error) {
	var rep fleetRep
	t0 := time.Now()
	trace := vm.DefaultTrace
	trace.Seed = seed
	trace.ArrivalRatePerS = fc.ArrivalsPerS
	trace.MeanLifetimeS = fleetLifetimeS
	trace.DurationS = fc.HorizonS

	_, endTrace := tr.begin("setup.trace", 0)
	events := vm.Events(vm.Generate(trace))
	endTrace()

	_, endNew := tr.begin("setup.sim_new", 0)
	cfg := dcsim.DefaultConfig()
	cfg.Servers = fc.Servers
	cfg.ServersPerTank = serversPerTank
	cfg.FeederBudgetW = feederWPerServer * float64(fc.Servers)
	cfg.Trace = trace
	cfg.Events = []vm.Event{} // the benchmark replays the trace itself
	cfg.Shards = runtime.GOMAXPROCS(0)
	var dec *timedDecider
	var gov *placement.Governor
	if tr != nil {
		gov = &placement.Governor{Thresh: cfg.OverclockThreshold, FeederBudgetW: cfg.FeederBudgetW}
		dec = &timedDecider{inner: gov, tr: tr}
		cfg.Decider = dec
	}
	sim, err := dcsim.New(cfg)
	if err != nil {
		return rep, fmt.Errorf("fleet: %w", err)
	}
	if gov != nil {
		gov.TankBudget = make([]int, sim.TankCount())
		for i := range gov.TankBudget {
			gov.TankBudget[i] = sim.TankBudget(i)
		}
	}
	endNew()

	ctx := context.Background()
	var snap dcsim.FleetSnapshot
	next := 0
	replay := func() int {
		n := 0
		for next < len(events) && events[next].TimeS <= sim.Now() {
			ev := events[next]
			next++
			n++
			if ev.Arrival {
				_, _ = sim.Place(ev.VM) // a rejection is counted in the report
			} else {
				sim.Remove(ev.VM)
			}
		}
		return n
	}

	_, endPrefill := tr.begin("setup.prefill", 0)
	for !sim.Done() && sim.Now() < fleetWarmupS {
		replay()
		if err := sim.StepCtx(ctx); err != nil {
			return rep, fmt.Errorf("fleet warm-up: %w", err)
		}
		sim.Snapshot(&snap)
	}
	endPrefill()
	rep.setup = time.Since(t0)
	// Time the steps with the collector paused, starting from a
	// collected heap. With a live heap this size a repetition sees zero
	// or one collection depending on a few megabytes of allocation, and
	// that one collection would decide the tail. The steps' garbage then
	// shows in peak_rss_mb and mallocs_per_op instead.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	grants0 := sim.Report().TotalGrants

	for !sim.Done() {
		s0 := time.Now()
		stepID := tr.newID()
		a := tr.now()
		rep.events += replay()
		b := tr.now()
		if dec != nil {
			dec.parent = stepID
		}
		if err := sim.StepCtx(ctx); err != nil {
			return rep, fmt.Errorf("fleet step: %w", err)
		}
		c := tr.now()
		sim.Snapshot(&snap)
		rep.steps = append(rep.steps, float64(time.Since(s0))/float64(time.Millisecond))
		if tr != nil {
			tr.record(span{ID: tr.newID(), Name: "fleet.place", Start: a, End: b})
			tr.record(span{ID: stepID, Name: "fleet.step", Start: b, End: c})
			tr.record(span{ID: tr.newID(), Name: "fleet.snapshot", Start: c, End: tr.now()})
		}
	}
	if len(rep.steps) == 0 {
		return rep, fmt.Errorf("fleet: horizon %.0f s leaves no steps after the %.0f s warm-up", fc.HorizonS, float64(fleetWarmupS))
	}
	r := sim.Report()
	rep.grants = r.TotalGrants - grants0
	rep.report = r.String()
	if dec != nil {
		rep.decGrant = dec.grants
	}
	return rep, nil
}
