package telemetry

import (
	"io"
	"strings"
	"testing"
)

// TestPromRendererMatchesSnapshot pins the cached renderer to the
// reference writer over a fresh Snapshot (promref_test.go) byte for
// byte, through value updates and through a
// shape change (new scope + new metrics) that forces a plan rebuild.
func TestPromRendererMatchesSnapshot(t *testing.T) {
	reg := promFixture()
	r := NewPromRenderer(reg, "ocd")

	check := func(stage string) {
		t.Helper()
		var want, got strings.Builder
		if err := reg.Snapshot().WritePrometheus(&want, "ocd"); err != nil {
			t.Fatal(err)
		}
		if err := r.Render(&got); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: renderer diverged from snapshot path:\n--- renderer ---\n%s\n--- snapshot ---\n%s",
				stage, got.String(), want.String())
		}
	}

	check("initial")
	if got := func() string { var b strings.Builder; _ = r.Render(&b); return b.String() }(); got != promGolden {
		t.Fatalf("renderer does not match the golden exposition:\n%s", got)
	}

	// Value-only updates must be visible without a rebuild.
	s := reg.Scope("dcsim")
	s.Counter("rejected").Add(5)
	s.Gauge("row_power_w").Set(-0.25)
	s.Histogram("step_wall_s", nil).Observe(0.05)
	check("after value updates")

	// Shape changes (new metric, new scope, new histogram) must be
	// picked up by the staleness probe.
	s.Counter("new_counter").Inc()
	check("after new counter")
	reg.Scope("ocd").Gauge("sim_time_drift_s").Set(1.5)
	check("after new scope")
	reg.Scope("ocd").Histogram("lat_s", []float64{0.001, 0.01}).Observe(0.002)
	check("after new histogram")
}

// TestPromRendererNilRegistry checks the nil/off no-op contract.
func TestPromRendererNilRegistry(t *testing.T) {
	for _, reg := range []*Registry{nil, Off} {
		var b strings.Builder
		if err := NewPromRenderer(reg, "").Render(&b); err != nil {
			t.Fatal(err)
		}
		if b.Len() != 0 {
			t.Fatalf("nil/off registry rendered %q, want nothing", b.String())
		}
	}
}

// TestPromRendererZeroAllocs is the scrape-scratch regression gate: on
// a warm registry (plan built, buffer grown) a scrape performs zero
// allocations.
func TestPromRendererZeroAllocs(t *testing.T) {
	reg := promFixture()
	r := NewPromRenderer(reg, "ocd")
	if err := r.Render(io.Discard); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := r.Render(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm scrape allocated %v times per run, want 0", n)
	}
}
