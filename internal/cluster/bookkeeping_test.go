package cluster

// The placement bookkeeping's two records — each server's sorted VM
// list and the cluster's VM→host table — must describe the same
// placement after any sequence of place, remove, failure, recovery and
// migration, including migration plans that went stale before they
// were applied.

import (
	"math/rand"
	"testing"

	"immersionoc/internal/vm"
)

// checkBookkeeping fails unless every server's VM list is strictly
// ascending by ID, every listed VM's host record names that server,
// the host table holds nothing else, and the incremental counters
// match the lists.
func checkBookkeeping(t *testing.T, c *Cluster) {
	t.Helper()
	listed, vcores := 0, 0
	for _, s := range c.servers {
		if s.Failed && len(s.vms) > 0 {
			t.Fatalf("failed server %d still lists %d VMs", s.ID, len(s.vms))
		}
		use := 0
		for i, e := range s.vms {
			if e.id != e.v.ID {
				t.Fatalf("server %d slot %d: inline ID %d, VM ID %d", s.ID, i, e.id, e.v.ID)
			}
			if i > 0 && s.vms[i-1].id >= e.id {
				t.Fatalf("server %d: VM list not strictly ascending at %d (%d, %d)", s.ID, i, s.vms[i-1].id, e.id)
			}
			if h, ok := c.Host(e.id); !ok || h != s {
				t.Fatalf("VM %d listed on server %d, Host says %v, %v", e.id, s.ID, h, ok)
			}
			use += e.v.Type.VCores
		}
		if use != s.vcoresUse {
			t.Fatalf("server %d: vcoresUse %d, list sums %d", s.ID, s.vcoresUse, use)
		}
		listed += len(s.vms)
		vcores += use
	}
	if c.hosts.n != listed || c.PlacedVMs() != listed {
		t.Fatalf("host table %d entries, PlacedVMs %d, lists hold %d", c.hosts.n, c.PlacedVMs(), listed)
	}
	if c.vcoresAlloc != vcores {
		t.Fatalf("vcoresAlloc %d, lists sum %d", c.vcoresAlloc, vcores)
	}
}

// TestPlaceRejectsDuplicateID: a second VM under a placed ID used to
// be attached as well, overwriting the host record and orphaning the
// first allocation for good.
func TestPlaceRejectsDuplicateID(t *testing.T) {
	c := New(TwoSocketBlade, Policy{}, 2)
	first, second := mkVM(7, 4, 16), mkVM(7, 4, 16)
	if _, err := c.Place(first); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(second); err != ErrAlreadyPlaced {
		t.Fatalf("duplicate place returned %v, want ErrAlreadyPlaced", err)
	}
	if c.Rejected != 0 {
		t.Fatalf("duplicate counted as a capacity rejection (Rejected=%d)", c.Rejected)
	}
	checkBookkeeping(t, c)
	if err := c.Remove(first); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove(second); err == nil {
		t.Fatal("second remove of ID 7 succeeded")
	}
	if c.PlacedVMs() != 0 || c.Stats().VCoresAllocated != 0 {
		t.Fatalf("after removing ID 7: PlacedVMs %d, %d vcores still allocated",
			c.PlacedVMs(), c.Stats().VCoresAllocated)
	}
	checkBookkeeping(t, c)
}

// TestApplyMigrationsSkipsStalePlans: a move whose VM left its source
// after planning used to detach whichever neighbour sorted at the
// VM's position and re-attach the departed VM on the destination.
func TestApplyMigrationsSkipsStalePlans(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, 3)
	for id := 0; id < 22; id++ {
		if _, err := c.Place(mkVM(id, 4, 16)); err != nil {
			t.Fatal(err)
		}
	}
	plan := c.PlanMigrations(4)
	if len(plan) < 2 {
		t.Fatalf("plan has %d moves, want ≥ 2", len(plan))
	}
	gone := plan[0].VM
	if err := c.Remove(gone); err != nil {
		t.Fatal(err)
	}
	if moved := c.ApplyMigrations(plan); moved != len(plan)-1 {
		t.Fatalf("applied %d moves, want %d (all but the stale one)", moved, len(plan)-1)
	}
	if h, ok := c.Host(gone.ID); ok {
		t.Fatalf("removed VM %d came back on server %d", gone.ID, h.ID)
	}
	for _, m := range plan[1:] {
		if h, _ := c.Host(m.VM.ID); h != m.To {
			t.Fatalf("VM %d on %v, planned destination %d", m.VM.ID, h, m.To.ID)
		}
	}
	checkBookkeeping(t, c)
}

// TestApplyMigrationsSkipsFailedDestination: a plan whose destination
// failed after planning must not attach VMs to the failed server.
func TestApplyMigrationsSkipsFailedDestination(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, 3)
	// Server 0: 4×16 + 4×2 vcores (8 VMs, oversubscribed); server 1:
	// 10×2 vcores, the fuller list, so it is the one FailServers hits.
	id := 0
	for _, vc := range []int{16, 16, 16, 16, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2} {
		if _, err := c.Place(mkVM(id, vc, 4)); err != nil {
			t.Fatal(err)
		}
		id++
	}
	plan := c.PlanMigrations(8)
	if len(plan) == 0 || plan[0].To.ID != 1 {
		t.Fatalf("want a plan moving VMs to server 1, got %d moves", len(plan))
	}
	if failed := c.FailServers(1); len(failed) == 0 || !c.Servers()[1].Failed {
		t.Fatal("FailServers(1) did not fail server 1")
	}
	if moved := c.ApplyMigrations(plan); moved != 0 {
		t.Fatalf("applied %d moves onto a failed server", moved)
	}
	checkBookkeeping(t, c)
}

// TestBookkeepingUnderChurn drives random place/remove/fail/recover/
// migrate churn — with migration plans applied after further churn,
// so some of their moves are stale — and checks the lists against the
// host table after every operation.
func TestBookkeepingUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5, BufferFraction: 0.1}, 20)
		var live []*vm.VM
		var stale []Migration
		nextID := -50 // negative IDs are legal VM IDs
		for op := 0; op < 3000; op++ {
			switch p := r.Float64(); {
			case p < 0.55:
				v := randomVM(r, nextID)
				nextID += 1 + r.Intn(3)
				if _, err := c.Place(v); err == nil {
					live = append(live, v)
				}
			case p < 0.88 && len(live) > 0:
				i := r.Intn(len(live))
				if err := c.Remove(live[i]); err != nil {
					t.Fatalf("seed %d op %d: remove VM %d: %v", seed, op, live[i].ID, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case p < 0.90:
				c.Recover(c.FailServers(1))
				live = live[:0]
				for _, s := range c.servers {
					live = append(live, s.VMsList()...)
				}
			case p < 0.95:
				stale = append(stale, c.PlanMigrations(1+r.Intn(4))...)
			default:
				c.ApplyMigrations(stale)
				stale = stale[:0]
			}
			checkBookkeeping(t, c)
		}
	}
}
