package ocd

// Publish-path benchmarks: the cost of making one write (or one step
// batch) visible to the read plane. Each benchmark has two arms. The
// plain arm is the shipped path: views chain through the snapshot's
// chunked copy-on-write columns, so a publish re-materializes only the
// chunks that mutations dirtied. The FullCopy arm publishes through
// publishFullCopyLocked into a fresh view, so every publish rebuilds
// every column — the pre-COW publication cost, kept live so the A/B
// never goes stale. bench_baseline.json carries the FullCopy arm's
// numbers as the plain arm's baseline, so `make bench` reports the COW
// speedup directly.
//
// The gate: at 100k servers a single-placement publish must be ≥20×
// cheaper chained than fully copied.

import (
	"fmt"
	"testing"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// publishDaemon builds a stepped daemon over n servers, packed ~60%
// through the real place path, with one view published.
func publishDaemon(b *testing.B, n int) *Daemon {
	b.Helper()
	cfg := dcsim.DefaultConfig()
	cfg.Servers = n
	cfg.Events = []vm.Event{}
	d, err := New(cfg, ModeStepped, telemetry.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	d.mu.Lock()
	for i := 0; i < n*3/5; i++ {
		resp, err := d.place(api.PlaceRequest{VM: api.VMSpec{
			ID: i, VCores: 8, MemoryGB: 32, AvgUtil: 0.6,
		}})
		if err != nil || !resp.Placed {
			d.mu.Unlock()
			b.Fatalf("prefill place %d: %v %+v", i, err, resp)
		}
	}
	d.publishLocked()
	d.mu.Unlock()
	return d
}

// publishArm picks a benchmark arm's publication: the chained
// production path, or the full-copy baseline.
func publishArm(d *Daemon, fullCopy bool) func() {
	if fullCopy {
		return d.publishFullCopyLocked
	}
	return d.publishLocked
}

// benchPublishPlace measures one write-plane cycle: a single placement
// (or its departure) plus the snapshot publication that makes it
// visible. In the chained arm only the mutated server's chunk
// re-materializes; in the full-copy arm the whole fleet does.
func benchPublishPlace(b *testing.B, n int, fullCopy bool) {
	d := publishDaemon(b, n)
	publish := publishArm(d, fullCopy)
	id := 1 << 30
	placed := false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.mu.Lock()
		if placed {
			if _, err := d.remove(api.RemoveRequest{ID: id}); err != nil {
				d.mu.Unlock()
				b.Fatal(err)
			}
			id++
		} else {
			if _, err := d.place(api.PlaceRequest{VM: api.VMSpec{
				ID: id, VCores: 8, MemoryGB: 32, AvgUtil: 0.6,
			}}); err != nil {
				d.mu.Unlock()
				b.Fatal(err)
			}
		}
		placed = !placed
		publish()
		d.mu.Unlock()
	}
}

// benchPublishStep isolates the republish that follows a simulation
// step: the step itself runs off the clock, the publication of its
// fleet-wide wear/thermal drift is what's timed. The chained arm still
// rebuilds both wear columns (a step dirties every server's wear) but
// shares the untouched placement columns; the full-copy arm rebuilds
// everything.
func benchPublishStep(b *testing.B, n int, fullCopy bool) {
	d := publishDaemon(b, n)
	publish := publishArm(d, fullCopy)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.mu.Lock()
		d.sim.Step()
		b.StartTimer()
		publish()
		d.mu.Unlock()
	}
}

func BenchmarkPublishPlace(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) { benchPublishPlace(b, n, false) })
	}
}

func BenchmarkPublishPlaceFullCopy(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) { benchPublishPlace(b, n, true) })
	}
}

func BenchmarkPublishStep(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) { benchPublishStep(b, n, false) })
	}
}

func BenchmarkPublishStepFullCopy(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("servers=%d", n), func(b *testing.B) { benchPublishStep(b, n, true) })
	}
}
