package dcsim

import (
	"context"
	"errors"
	"testing"

	"immersionoc/internal/cluster"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/thermal"
	"immersionoc/internal/vm"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Trace.DurationS = 12 * 3600
	return cfg
}

func TestRunProducesReport(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakDensity <= 0 {
		t.Fatal("no VMs placed")
	}
	if rep.PowerW.Len() == 0 || rep.BathC.Len() == 0 {
		t.Fatal("series not recorded")
	}
	if rep.MaxBathC < 50 {
		t.Fatalf("bath %v below FC-3284 boiling point", rep.MaxBathC)
	}
	if rep.String() == "" {
		t.Fatal("empty summary")
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("non-deterministic: %s vs %s", a, b)
	}
}

func TestHighLoadTriggersOverclocks(t *testing.T) {
	cfg := smallConfig()
	cfg.Trace.ArrivalRatePerS = 0.05
	cfg.Trace.MeanLifetimeS = 20 * 3600
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakOverclocked == 0 {
		t.Fatal("heavy oversubscribed load never overclocked")
	}
	if rep.OverclockServerHours <= 0 {
		t.Fatal("no overclock hours accrued")
	}
	// Tank admission keeps each tank within its condenser budget.
	budget := thermal.LargeTank().OverclockBudget(12, 658, 858)
	if rep.PeakOverclocked > 3*budget {
		t.Fatalf("peak OC %d exceeds 3 tanks × budget %d", rep.PeakOverclocked, budget)
	}
}

func TestFeederBudgetCancelsOverclocks(t *testing.T) {
	cfg := smallConfig()
	cfg.Trace.ArrivalRatePerS = 0.05
	cfg.Trace.MeanLifetimeS = 20 * 3600
	cfg.FeederBudgetW = 11200 // tight
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CapEvents == 0 || rep.CancelledOverclocks == 0 {
		t.Fatalf("tight feeder never capped: %s", rep)
	}
	// The row must actually respect the budget at every sample.
	for _, p := range rep.PowerW.Values {
		if p > cfg.FeederBudgetW*1.001 {
			t.Fatalf("row power %v exceeds budget %v", p, cfg.FeederBudgetW)
		}
	}
}

func TestWearStaysNearSchedule(t *testing.T) {
	rep, err := Run(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Immersed fleet at moderate load wears well below the 5-year
	// schedule even with opportunistic overclocking.
	if rep.MeanWearUsed >= 1 {
		t.Fatalf("fleet wearing faster than schedule: %v", rep.MeanWearUsed)
	}
	if rep.MeanWearUsed <= 0 {
		t.Fatal("no wear accrued")
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Servers = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero servers accepted")
	}
	cfg = DefaultConfig()
	cfg.StepS = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero step accepted")
	}
}

func TestTraceReplayConsistency(t *testing.T) {
	// Density must return to ~0 after all VMs depart.
	cfg := smallConfig()
	cfg.Trace.DurationS = 6 * 3600
	cfg.Trace.MeanLifetimeS = 1800
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_ = vm.DefaultTrace
	last := rep.Density.Values[len(rep.Density.Values)-1]
	if last > rep.PeakDensity {
		t.Fatal("density bookkeeping inconsistent")
	}
}

// stepCountingCtx reports itself cancelled after its Err method has
// been consulted limit times — a deterministic stand-in for "the user
// hit ^C while step N was executing".
type stepCountingCtx struct {
	context.Context
	calls, limit int
}

func (c *stepCountingCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRunCtxPreCancelled asserts a cancelled context stops the run
// before the first control step executes.
func TestRunCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reg := telemetry.NewRegistry()
	cfg := smallConfig()
	cfg.Tel = reg.Scope("fleet")
	if _, err := RunCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if steps := reg.Scope("fleet").Counter("steps").Value(); steps != 0 {
		t.Fatalf("%d control steps ran after cancellation", steps)
	}
}

// TestRunCtxStopsWithinOneStep pins the cancellation promise: once
// the context reports cancelled, at most the in-flight control step
// finishes — the simulation does not run to the end of the trace.
func TestRunCtxStopsWithinOneStep(t *testing.T) {
	const limit = 5
	reg := telemetry.NewRegistry()
	cfg := smallConfig()
	cfg.Tel = reg.Scope("fleet")
	ctx := &stepCountingCtx{Context: context.Background(), limit: limit}
	if _, err := RunCtx(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	steps := reg.Scope("fleet").Counter("steps").Value()
	if steps > limit {
		t.Fatalf("%d control steps ran, want ≤ %d (cancellation checked each step boundary)", steps, limit)
	}
	// The trace would run far longer than limit steps; make sure the
	// cancellation actually cut it short rather than the config.
	if total := cfg.Trace.DurationS / cfg.StepS; float64(steps) >= total {
		t.Fatalf("cancellation never cut the run short (%d of %.0f steps)", steps, total)
	}
}

// TestPlaceDuplicateIDIsNotARejection: a second VM under a placed ID
// is refused without counting as a capacity rejection, and RemoveID
// then frees the one placed VM.
func TestPlaceDuplicateIDIsNotARejection(t *testing.T) {
	cfg := smallConfig()
	cfg.Events = []vm.Event{}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := &vm.VM{ID: 7, Type: vm.Size4, AvgUtil: 0.5}
	if _, err := s.Place(v); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(&vm.VM{ID: 7, Type: vm.Size4, AvgUtil: 0.5}); !errors.Is(err, cluster.ErrAlreadyPlaced) {
		t.Fatalf("duplicate place returned %v, want cluster.ErrAlreadyPlaced", err)
	}
	if r := s.Report().Rejected; r != 0 {
		t.Fatalf("duplicate counted as %d rejections", r)
	}
	if _, ok := s.RemoveID(7); !ok || s.Cluster().PlacedVMs() != 0 {
		t.Fatalf("RemoveID(7) = %v, %d VMs still placed", ok, s.Cluster().PlacedVMs())
	}
	if _, ok := s.RemoveID(7); ok {
		t.Fatal("second RemoveID(7) succeeded")
	}
}
