package cluster

// Differential tests of the open-addressing host table against a Go
// map: random set/get/del traces over key families chosen to stress
// the probing code — sequential trace IDs, tight clusters, keys that
// share one home slot, keys homed at the last slot (probe runs wrap
// to slot 0), negative IDs and IDs above 2^32 — with growth from the
// minimum size. FuzzHostTable drives the same check from fuzzed bytes.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// checkHostTable compares t against the reference map and checks the
// table's structural invariants: load ≤ 1/2, the live count, and every
// entry reachable from its home slot without crossing an empty slot.
func checkHostTable(tb testing.TB, t *hostTable, ref map[int]int32) {
	tb.Helper()
	if t.n != len(ref) {
		tb.Fatalf("table holds %d entries, reference %d", t.n, len(ref))
	}
	if 2*t.n > len(t.slots) {
		tb.Fatalf("load %d/%d above 1/2", t.n, len(t.slots))
	}
	for id, want := range ref {
		if got, ok := t.get(id); !ok || got != want {
			tb.Fatalf("get(%d) = %d, %v; want %d", id, got, ok, want)
		}
	}
	mask := len(t.slots) - 1
	live := 0
	for i, s := range t.slots {
		if s.ref == 0 {
			continue
		}
		live++
		for j := t.home(s.id); j != i; j = (j + 1) & mask {
			if t.slots[j].ref == 0 {
				tb.Fatalf("entry %d at slot %d unreachable: empty slot %d after its home", s.id, i, j)
			}
		}
	}
	if live != t.n {
		tb.Fatalf("%d occupied slots, count says %d", live, t.n)
	}
}

// hostKeyFamilies returns key generators, each drawing from a small
// pool so traces revisit keys and exercise overwrite and delete-hit.
func hostKeyFamilies() map[string]func(r *rand.Rand) int {
	// Keys whose home is the last slot of a 64-slot table, and keys
	// sharing home slot 5 in it: long probe runs that cross the end.
	probe := hostTable{shift: 64 - 6}
	var lastHome, sameHome []int
	for k := 0; len(lastHome) < 24 || len(sameHome) < 24; k++ {
		switch probe.home(k) {
		case 63:
			lastHome = append(lastHome, k)
		case 5:
			sameHome = append(sameHome, k)
		}
	}
	return map[string]func(r *rand.Rand) int{
		"sequential": func(r *rand.Rand) int { return r.Intn(2000) },
		"clustered":  func(r *rand.Rand) int { return 1<<20 + r.Intn(40) },
		"last-home":  func(r *rand.Rand) int { return lastHome[r.Intn(len(lastHome))] },
		"same-home":  func(r *rand.Rand) int { return sameHome[r.Intn(len(sameHome))] },
		"negative":   func(r *rand.Rand) int { return -1 - r.Intn(500) },
		"above-2^32": func(r *rand.Rand) int { return 1<<32 + r.Intn(300)<<32 + r.Intn(3) },
		"mixed": func(r *rand.Rand) int {
			switch r.Intn(4) {
			case 0:
				return r.Intn(300)
			case 1:
				return -r.Intn(300)
			case 2:
				return 1<<40 + r.Intn(300)
			}
			return int(r.Uint64())
		},
	}
}

func TestHostTableMatchesMap(t *testing.T) {
	for name, key := range hostKeyFamilies() {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1))
			tab := newHostTable()
			ref := map[int]int32{}
			for op := 0; op < 20000; op++ {
				id := key(r)
				switch p := r.Intn(10); {
				case p < 5:
					srv := r.Int31n(math.MaxInt32)
					tab.set(id, srv)
					ref[id] = srv
				case p < 8:
					want, wantOK := ref[id]
					got, ok := tab.del(id)
					if ok != wantOK || got != want {
						t.Fatalf("op %d: del(%d) = %d, %v; want %d, %v", op, id, got, ok, want, wantOK)
					}
					delete(ref, id)
				default:
					want, wantOK := ref[id]
					if got, ok := tab.get(id); ok != wantOK || got != want {
						t.Fatalf("op %d: get(%d) = %d, %v; want %d, %v", op, id, got, ok, want, wantOK)
					}
				}
				if op%97 == 0 {
					checkHostTable(t, &tab, ref)
				}
			}
			checkHostTable(t, &tab, ref)
		})
	}
}

// TestHostTableGrowsAndDrains fills the table far past its minimum
// size, then deletes everything: every slot must come back empty.
func TestHostTableGrowsAndDrains(t *testing.T) {
	tab := newHostTable()
	ref := map[int]int32{}
	for id := -5000; id < 5000; id += 3 {
		tab.set(id, int32(id&0xffff))
		ref[id] = int32(id & 0xffff)
	}
	checkHostTable(t, &tab, ref)
	for id := range ref {
		if _, ok := tab.del(id); !ok {
			t.Fatalf("del(%d) missed", id)
		}
		delete(ref, id)
	}
	checkHostTable(t, &tab, ref)
	for i, s := range tab.slots {
		if s != (hostSlot{}) {
			t.Fatalf("slot %d not cleared after draining: %+v", i, s)
		}
	}
}

// FuzzHostTable decodes the input as a trace of 4-byte operations —
// opcode, key family, and a 16-bit key — and checks the table against
// a map after every operation.
func FuzzHostTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0, 1, 2, 0, 0, 2})
	f.Add([]byte{0, 3, 0, 7, 0, 3, 0, 8, 0, 3, 0, 9, 1, 3, 0, 7, 2, 3, 0, 9})
	f.Add([]byte{0, 1, 255, 255, 0, 2, 0, 1, 0, 4, 0, 1, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Key families: plain, negative, above 2^32, and shifted into
		// the top bits (huge and negative keys that differ only where
		// the multiplicative hash mixes least).
		keyOf := func(fam byte, k uint16) int {
			switch fam % 4 {
			case 1:
				return -int(k)
			case 2:
				return 1<<32 + int(k)
			case 3:
				return int(k) << 48
			}
			return int(k)
		}
		tab := newHostTable()
		ref := map[int]int32{}
		for len(data) >= 4 {
			op, fam, k := data[0], data[1], binary.BigEndian.Uint16(data[2:4])
			data = data[4:]
			id := keyOf(fam, k)
			switch op % 3 {
			case 0:
				srv := int32(k) * 7
				tab.set(id, srv)
				ref[id] = srv
			case 1:
				want, wantOK := ref[id]
				if got, ok := tab.del(id); ok != wantOK || got != want {
					t.Fatalf("del(%d) = %d, %v; want %d, %v", id, got, ok, want, wantOK)
				}
				delete(ref, id)
			case 2:
				want, wantOK := ref[id]
				if got, ok := tab.get(id); ok != wantOK || got != want {
					t.Fatalf("get(%d) = %d, %v; want %d, %v", id, got, ok, want, wantOK)
				}
			}
			checkHostTable(t, &tab, ref)
		}
	})
}
