package ocd

// Publish-path unit tests: the steady-state allocation bound of a
// chained publish, and the write-plane group-commit semantics
// (leading-edge publish, burst coalescing, trailing-edge flush, step
// absorption, and — under -race with concurrent writers — the
// guarantee that coalescing never leaves the latest write unpublished).

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// TestPublishAllocsBoundedByDirtyChunks pins the O(changed state)
// claim at the allocation level: a publish after a single-server
// mutation allocates the new view plus one chunk header and one
// re-materialized chunk per column — a count that depends on how many
// chunks were dirtied, not on how many servers the fleet has. The same
// mutation against a 10× larger fleet must allocate exactly as much.
func TestPublishAllocsBoundedByDirtyChunks(t *testing.T) {
	counts := map[int]float64{}
	for _, n := range []int{2048, 20480} {
		cfg := dcsim.DefaultConfig()
		cfg.Servers = n
		cfg.Events = []vm.Event{}
		d, err := New(cfg, ModeStepped, telemetry.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		// The mutation is driven below the API layer with a prebuilt VM
		// so the measurement isolates the publish path from request
		// decoding and VM construction.
		v := &vm.VM{
			ID:      1 << 30,
			Type:    vm.Type{Name: "v8", VCores: 8, MemoryGB: 32},
			AvgUtil: 0.6,
		}
		cycle := func() {
			d.mu.Lock()
			if _, err := d.sim.Place(v); err != nil {
				d.mu.Unlock()
				t.Fatal(err)
			}
			d.publishLocked()
			d.sim.Remove(v)
			d.publishLocked()
			d.mu.Unlock()
		}
		cycle() // warm the destination chain
		counts[n] = testing.AllocsPerRun(20, cycle)
	}
	if counts[2048] != counts[20480] {
		t.Fatalf("publish allocations scale with fleet size: %v at 2048 servers vs %v at 20480",
			counts[2048], counts[20480])
	}
	// Two publishes per cycle; each is one view plus (header + chunk)
	// per flat column. Leave headroom for a column or two more, but a
	// fleet-proportional count must fail.
	if counts[2048] > 40 {
		t.Fatalf("publish cycle allocates %v times, want ≤ 40 (view + per-dirty-chunk only)", counts[2048])
	}
}

// groupCommitDaemon builds a stepped daemon with its Handler and a
// place helper issuing single-VM placements through the real HTTP
// write path.
func groupCommitDaemon(t *testing.T, window time.Duration) (*Daemon, func(id int)) {
	t.Helper()
	d, err := New(testFleet(), ModeStepped, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d.SetPublishMaxLatency(window)
	h := d.Handler()
	place := func(id int) {
		t.Helper()
		rec := hit(h, http.MethodPost, "/v1/place",
			fmt.Sprintf(`{"vm":{"id":%d,"vcores":2,"memory_gb":8,"avg_util":0.5}}`, id))
		if rec.Code != http.StatusOK {
			t.Fatalf("place %d: HTTP %d %s", id, rec.Code, rec.Body.String())
		}
	}
	return d, place
}

// TestGroupCommitCoalesces drives the group-commit state machine
// deterministically with an hour-long window: the leading edge
// publishes immediately, a burst inside the window coalesces into a
// pending view with one armed flush, the (manually fired) trailing
// flush publishes the latest coalesced state, and a step absorbs any
// pending write into its unconditional publish.
func TestGroupCommitCoalesces(t *testing.T) {
	d, place := groupCommitDaemon(t, time.Hour)

	// Backdate the last publish so the first write lands outside the
	// window.
	d.mu.Lock()
	d.lastPublish = time.Now().Add(-2 * time.Hour)
	d.mu.Unlock()

	v0 := d.snap.Load()
	place(1)
	v1 := d.snap.Load()
	if v1 == v0 || v1.Flat.PlacedVMs != 1 {
		t.Fatalf("leading-edge write did not publish immediately (placedVMs=%d)", v1.Flat.PlacedVMs)
	}

	place(2)
	place(3)
	if got := d.snap.Load(); got != v1 {
		t.Fatalf("burst writes inside the window published eagerly, want coalesced")
	}
	d.mu.Lock()
	pending, armed := d.pendingView, d.flushArmed
	d.mu.Unlock()
	if !pending || !armed {
		t.Fatalf("coalesced burst: pendingView=%v flushArmed=%v, want both true", pending, armed)
	}

	d.flushPending()
	v2 := d.snap.Load()
	if v2 == v1 || v2.Flat.PlacedVMs != 3 {
		t.Fatalf("trailing flush published placedVMs=%d, want 3", v2.Flat.PlacedVMs)
	}

	place(4)
	if d.snap.Load() != v2 {
		t.Fatalf("write after a flush should coalesce again")
	}
	rec := hit(d.Handler(), http.MethodPost, "/v1/step", `{"steps":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("step: HTTP %d %s", rec.Code, rec.Body.String())
	}
	v3 := d.snap.Load()
	if v3.Flat.PlacedVMs != 4 {
		t.Fatalf("step publish skipped the pending write: placedVMs=%d, want 4", v3.Flat.PlacedVMs)
	}
	d.mu.Lock()
	pending = d.pendingView
	d.mu.Unlock()
	if pending {
		t.Fatalf("step publish left pendingView set")
	}
}

// TestGroupCommitTrailingFlush checks the max-latency bound with a
// real timer: a coalesced write becomes visible within (roughly) one
// window without any further write or step arriving.
func TestGroupCommitTrailingFlush(t *testing.T) {
	d, place := groupCommitDaemon(t, 25*time.Millisecond)
	d.mu.Lock()
	d.lastPublish = time.Now().Add(-time.Second)
	d.mu.Unlock()

	place(1) // leading edge: published
	place(2) // inside the window: coalesced, flush armed
	deadline := time.Now().Add(5 * time.Second)
	for d.snap.Load().Flat.PlacedVMs != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced write still unpublished after 5s (placedVMs=%d)",
				d.snap.Load().Flat.PlacedVMs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentWritersCoalescedPublish hammers a scaled-mode daemon —
// parallel placers/removers/overclockers, concurrent snapshot readers,
// RunScaled stepping and publishing underneath, all with a small
// publish window — and then requires the published view to converge on
// the exact final write state: coalescing may defer a write but must
// never lose one. Run under -race in CI's multicore leg.
func TestConcurrentWritersCoalescedPublish(t *testing.T) {
	cfg := testFleet()
	cfg.Servers = 48
	cfg.ServersPerTank = 8
	d, err := New(cfg, ModeScaled, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d.SetPublishMaxLatency(2 * time.Millisecond)
	h := d.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	var simWG sync.WaitGroup
	simWG.Add(1)
	go func() {
		defer simWG.Done()
		d.RunScaled(ctx, 120)
	}()

	readersDone := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < 2; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-readersDone:
					return
				default:
				}
				hit(h, http.MethodGet, "/v1/status", "")
				hit(h, http.MethodPost, "/v1/filter",
					`{"vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":0.5}}`)
			}
		}()
	}

	var writerWG sync.WaitGroup
	for w := 0; w < 3; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			base := 1000 * (w + 1)
			for i := 0; i < 80; i++ {
				hit(h, http.MethodPost, "/v1/place",
					fmt.Sprintf(`{"vm":{"id":%d,"vcores":2,"memory_gb":8,"avg_util":0.4}}`, base+i))
				hit(h, http.MethodPost, "/v1/overclock",
					fmt.Sprintf(`{"server":%d}`, (w*16+i)%cfg.Servers))
				if i >= 10 {
					// Trail removals 10 behind so the fleet stays churning
					// but each worker leaves its last 10 placements live.
					hit(h, http.MethodPost, "/v1/remove",
						fmt.Sprintf(`{"id":%d}`, base+i-10))
				}
			}
		}(w)
	}
	writerWG.Wait()
	close(readersDone)
	readerWG.Wait()
	cancel()
	simWG.Wait()

	// Quiesced: the only publisher left is the trailing flush timer.
	// The published view must converge on exactly the daemon's final
	// placed set.
	d.mu.Lock()
	want := d.sim.Cluster().PlacedVMs()
	d.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for d.snap.Load().Flat.PlacedVMs != want {
		if time.Now().After(deadline) {
			t.Fatalf("published view stuck at placedVMs=%d, want %d: a coalesced publish lost the latest write",
				d.snap.Load().Flat.PlacedVMs, want)
		}
		time.Sleep(time.Millisecond)
	}
}
