package cluster

// hostTable maps placed VM IDs to the fleet index of the hosting
// server. Every place and remove probes it at a random position in a
// table far larger than the caches, so its layout sets the cost: a
// slot packs the key and its value into 16 bytes, a lookup that hits
// its home slot costs one cache miss, and the table holds no pointers
// for the garbage collector to scan. (DESIGN.md "Placement
// bookkeeping" measures it against a Go map[int]int32.)
//
// Open addressing with linear probing, Fibonacci hashing (the
// multiplicative hash spreads the dense, sequential IDs traces use
// across the table) and load ≤ 1/2. Deletion shifts later entries of
// the probe run back into the hole instead of leaving a tombstone, so
// place/remove churn at a steady live count never degrades probe
// lengths and never forces a rehash: the table only grows, and only
// when the live count outgrows half its slots.
type hostTable struct {
	slots []hostSlot
	n     int  // live entries
	shift uint // 64 − log2(len(slots))
}

// hostSlot is one table entry. ref is the server index plus one, so a
// zero slot (ref == 0) is empty and a freshly allocated table needs no
// initialisation pass; server indices fit in int32 (New rejects larger
// fleets), and index+1 ≤ MaxInt32.
type hostSlot struct {
	id  int
	ref int32
}

// fib is 2^64 / φ, the Fibonacci-hashing multiplier.
const fib = 0x9E3779B97F4A7C15

// minHostBits is log2 of the smallest table's slot count.
const minHostBits = 4

func newHostTable() hostTable {
	return hostTable{slots: make([]hostSlot, 1<<minHostBits), shift: 64 - minHostBits}
}

// home returns id's preferred slot.
func (t *hostTable) home(id int) int {
	return int((uint64(id) * fib) >> t.shift)
}

// get returns the server index hosting id.
func (t *hostTable) get(id int) (int32, bool) {
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.id == id {
			return s.ref - 1, true
		}
	}
}

// set records id as hosted on server srv, overwriting an existing
// entry for id.
func (t *hostTable) set(id int, srv int32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			*s = hostSlot{id: id, ref: srv + 1}
			t.n++
			return
		}
		if s.id == id {
			s.ref = srv + 1
			return
		}
	}
}

// del removes id and returns the server index it was hosted on.
func (t *hostTable) del(id int) (int32, bool) {
	mask := len(t.slots) - 1
	i := t.home(id)
	for {
		s := &t.slots[i]
		if s.ref == 0 {
			return 0, false
		}
		if s.id == id {
			break
		}
		i = (i + 1) & mask
	}
	srv := t.slots[i].ref - 1
	// Backward shift: walk the rest of the probe run and move each
	// entry whose home lies at or before the hole (cyclically) into it,
	// so every remaining entry stays reachable from its home slot
	// without passing an empty slot.
	for j := (i + 1) & mask; t.slots[j].ref != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].id))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = hostSlot{}
	t.n--
	return srv, true
}

// grow doubles the table and re-inserts every entry.
func (t *hostTable) grow() {
	old := t.slots
	t.slots = make([]hostSlot, 2*len(old))
	t.shift--
	mask := len(t.slots) - 1
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := t.home(s.id)
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
