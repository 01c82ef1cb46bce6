package ocd

// Publish-path unit tests: the steady-state allocation bound of a
// chained publish, and — under -race with concurrent writers — the
// guarantee that the published view never misses the latest write.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

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

// TestConcurrentWritersCoalescedPublish hammers a scaled-mode daemon —
// parallel placers/removers/overclockers, concurrent snapshot readers,
// RunScaled stepping and publishing underneath — and then requires the
// published view to match the exact final write state: racing
// publishers must never leave the latest write out of the view. Run
// under -race in CI's multicore leg.
func TestConcurrentWritersCoalescedPublish(t *testing.T) {
	cfg := testFleet()
	cfg.Servers = 48
	cfg.ServersPerTank = 8
	d, err := New(cfg, ModeScaled, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
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

	// Quiesced: every write and step published before releasing the
	// lock, so the view must hold exactly the daemon's final placed set.
	d.mu.Lock()
	want := d.sim.Cluster().PlacedVMs()
	d.mu.Unlock()
	if got := d.snap.Load().Flat.PlacedVMs; got != want {
		t.Fatalf("published view at placedVMs=%d, want %d: a publish lost the latest write", got, want)
	}
}
