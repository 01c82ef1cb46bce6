package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"immersionoc/internal/vm"
)

// refVCoreCap is the per-server vcore cap computed from the server's
// own spec and the policy, independent of the cap the index stores.
func refVCoreCap(c *Cluster, s *Server) int {
	capV := s.Spec.PCores
	if c.Policy.CPUOversubRatio > 0 && s.Spec.Overclockable {
		capV = int(float64(s.Spec.PCores) * (1 + c.Policy.CPUOversubRatio))
	}
	return capV
}

// linearBestFit is the pre-index placement scan, kept verbatim as the
// reference implementation: best-fit on remaining vcores, ties to the
// lowest server ID.
func linearBestFit(c *Cluster, v *vm.VM) *Server {
	var best *Server
	bestLeft := 1 << 30
	for _, s := range c.servers {
		if !c.fits(s, v, false) {
			continue
		}
		left := refVCoreCap(c, s) - s.vcoresUse - v.Type.VCores
		if left < bestLeft || (left == bestLeft && best != nil && s.ID < best.ID) {
			best, bestLeft = s, left
		}
	}
	return best
}

func randomVM(rng *rand.Rand, id int) *vm.VM {
	sizes := []int{2, 4, 8, 16}
	vc := sizes[rng.Intn(len(sizes))]
	class := vm.Regular
	if rng.Float64() < 0.1 {
		class = vm.HighPerf
	}
	return &vm.VM{
		ID:      id,
		Type:    vm.Type{VCores: vc, MemoryGB: float64(vc) * 4},
		Class:   class,
		AvgUtil: 0.2 + 0.6*rng.Float64(),
	}
}

// TestIndexedPlacementMatchesLinear drives a randomized
// place/remove/fail/oversub-flip sequence and checks, before every
// placement, that the index picks exactly the server the linear
// best-fit scan would.
func TestIndexedPlacementMatchesLinear(t *testing.T) {
	for _, spec := range []ServerSpec{TwoSocketBlade, AirBlade} {
		rng := rand.New(rand.NewSource(42))
		c := New(spec, Policy{CPUOversubRatio: 0.25}, 64)
		var live []*vm.VM
		nextID := 1
		for op := 0; op < 5000; op++ {
			switch p := rng.Float64(); {
			case p < 0.55 || len(live) == 0:
				v := randomVM(rng, nextID)
				nextID++
				want := linearBestFit(c, v)
				got, err := c.Place(v)
				if want == nil {
					if err == nil {
						t.Fatalf("op %d: index placed VM %d on %d, linear scan found no fit", op, v.ID, got.ID)
					}
					continue
				}
				if err != nil {
					t.Fatalf("op %d: linear scan fits VM %d on %d, index rejected: %v", op, v.ID, want.ID, err)
				}
				if got.ID != want.ID {
					t.Fatalf("op %d: VM %d placed on %d, linear best-fit is %d", op, v.ID, got.ID, want.ID)
				}
				live = append(live, v)
			case p < 0.90:
				i := rng.Intn(len(live))
				v := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if err := c.Remove(v); err != nil {
					t.Fatalf("op %d: remove VM %d: %v", op, v.ID, err)
				}
			case p < 0.95:
				displaced := c.FailServers(1)
				for _, v := range displaced {
					for i, lv := range live {
						if lv.ID == v.ID {
							live[i] = live[len(live)-1]
							live = live[:len(live)-1]
							break
						}
					}
				}
			default:
				ratios := []float64{0, 0.20, 0.25, 0.5}
				c.SetOversubRatio(ratios[rng.Intn(len(ratios))])
			}
		}
		// The maintained index must equal a from-scratch rebuild.
		maintained := c.idx
		c.rebuildIndex()
		if maintained.capV != c.idx.capV || !reflect.DeepEqual(maintained.counts, c.idx.counts) {
			t.Fatalf("spec %+v: maintained index counts diverged from rebuild", spec)
		}
		for r := 0; r <= c.idx.capV; r++ {
			mb, rb := maintained.buckets[r], c.idx.buckets[r]
			for w := 0; w < c.idx.words; w++ {
				var mv, rv uint64
				if mb != nil {
					mv = mb[w]
				}
				if rb != nil {
					rv = rb[w]
				}
				if mv != rv {
					t.Fatalf("spec %+v: bucket %d word %d: maintained %x, rebuilt %x", spec, r, w, mv, rv)
				}
			}
		}
	}
}

// TestIndexSurvivesMigrations checks index maintenance through the
// plan/apply migration path, which moves VMs without going through
// Place/Remove.
func TestIndexSurvivesMigrations(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, 8)
	rng := rand.New(rand.NewSource(7))
	for id := 1; id <= 60; id++ {
		if _, err := c.Place(randomVM(rng, id)); err != nil {
			break
		}
	}
	c.SetOversubRatio(0.25)
	plan := c.PlanMigrations(16)
	if len(plan) == 0 {
		t.Fatal("expected a non-empty migration plan from an oversubscribed fleet")
	}
	c.ApplyMigrations(plan)
	maintained := c.idx
	c.rebuildIndex()
	if !reflect.DeepEqual(maintained.counts, c.idx.counts) {
		t.Fatalf("index counts diverged after migrations: %v vs %v", maintained.counts, c.idx.counts)
	}
}
