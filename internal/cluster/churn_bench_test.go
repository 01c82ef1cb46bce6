package cluster

import (
	"math/rand"
	"testing"

	"immersionoc/internal/vm"
)

// BenchmarkClusterChurn measures the placement bookkeeping at fleet
// scale: 100k servers holding 250k live VMs, one op = remove the
// oldest VM + place a new one, as trace replay does at a steady state.
// The VM structs cycle through a pool twice the live count, so each
// placement touches a struct last used 250k ops earlier — as cold as
// a trace's — and IDs ascend like a trace's.
func BenchmarkClusterChurn(b *testing.B) {
	const servers, live = 100_000, 250_000
	r := rand.New(rand.NewSource(1))
	types := vm.Types()
	pool := make([]*vm.VM, 2*live)
	for i := range pool {
		pool[i] = &vm.VM{Type: types[r.Intn(len(types))], AvgUtil: 0.1 + 0.8*r.Float64()}
	}
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.2}, servers)
	for id := 0; id < live; id++ {
		v := pool[id]
		v.ID = id
		if _, err := c.Place(v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.RemoveID(i); !ok {
			b.Fatalf("VM %d not placed", i)
		}
		v := pool[(i+live)%len(pool)]
		v.ID = i + live
		if _, err := c.Place(v); err != nil {
			b.Fatal(err)
		}
	}
}
