package vm

import (
	"math/rand"
	"sort"
	"testing"
)

// eventsReference is the reflection-based sort.Slice ordering Events
// used before it moved to slices.SortFunc, kept as the reference.
func eventsReference(trace []*VM) []Event {
	evs := make([]Event, 0, 2*len(trace))
	for _, v := range trace {
		evs = append(evs, Event{TimeS: v.ArrivalS, VM: v, Arrival: true})
		evs = append(evs, Event{TimeS: v.EndS(), VM: v, Arrival: false})
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TimeS != b.TimeS {
			return a.TimeS < b.TimeS
		}
		if a.Arrival != b.Arrival {
			return !a.Arrival
		}
		return a.VM.ID < b.VM.ID
	})
	return evs
}

// TestEventsMatchesSortSliceReference pins Events against the
// reference on a generated trace and on one with forced time ties:
// arrivals and departures snapped to a coarse grid, zero lifetimes,
// and IDs in shuffled order, so every tie-break rule decides.
func TestEventsMatchesSortSliceReference(t *testing.T) {
	cfg := DefaultTrace
	cfg.DurationS = 4 * 3600
	generated := Generate(cfg)

	r := rand.New(rand.NewSource(3))
	var tied []*VM
	for _, id := range r.Perm(3000) {
		tied = append(tied, &VM{
			ID:        id - 1000,
			ArrivalS:  float64(r.Intn(40)) * 30,
			LifetimeS: float64(r.Intn(6)) * 30,
		})
	}

	for name, trace := range map[string][]*VM{"generated": generated, "tied": tied} {
		got, want := Events(trace), eventsReference(trace)
		if len(got) != len(want) {
			t.Fatalf("%s: %d events, reference %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %+v, reference %+v", name, i, got[i], want[i])
			}
		}
	}
}
