package sim

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// traceOp is one step of a randomized kernel trace: schedule, cancel,
// retime, or advance the clock. The numeric fields are interpreted
// modulo the live state so every generated value is a legal trace.
type traceOp struct {
	Kind  uint8
	Which uint16
	Delta uint8
}

// traceDelta spreads deltas across the wheel's interesting scales:
// zero (same timestamp), sub-tick, exactly one tick, millisecond and
// second scale (level 0-1), minute scale (level 2+), beyond the wheel
// horizon (overflow list), and +Inf.
func traceDelta(b uint8) float64 {
	switch b % 8 {
	case 0:
		return 0
	case 1:
		return 1.0 / 4096
	case 2:
		return 1.0 / 1024
	case 3:
		return float64(b) / 997
	case 4:
		return float64(b) * 0.37
	case 5:
		return float64(b) * 65.0
	case 6:
		return 1e10 + float64(b)*7e9
	default:
		if b > 250 {
			return math.Inf(1)
		}
		return float64(b) * 1e5
	}
}

// traceKernel is what runTrace drives: a kernel whose events are
// named by their schedule order.
type traceKernel interface {
	now() Time
	schedule(id int, at Time)
	live(id int) bool // scheduled, not yet fired or cancelled
	cancel(id int)
	reschedule(id int, at Time)
	runUntil(end Time)
	result() traceResult
}

// traceResult is what the differential compares: the firing order
// (event ids) and the final clock state.
type traceResult struct {
	log   []int
	now   Time
	fired uint64
}

// runTrace interprets ops against k. The numeric fields are taken
// modulo the live state, so every op sequence is a legal trace.
func runTrace(k traceKernel, ops []traceOp) traceResult {
	n := 0
	schedule := func(at Time) {
		k.schedule(n, at)
		n++
	}
	schedule(0)
	for _, op := range ops {
		switch op.Kind % 5 {
		case 0, 1: // weight toward scheduling
			schedule(k.now() + Time(traceDelta(op.Delta)))
		case 2:
			if i := int(op.Which) % n; k.live(i) {
				k.cancel(i)
			}
		case 3:
			if i := int(op.Which) % n; k.live(i) {
				k.reschedule(i, k.now()+Time(traceDelta(op.Delta)))
			}
		case 4:
			k.runUntil(k.now() + Time(traceDelta(op.Delta)))
		}
	}
	k.runUntil(Time(math.Inf(1)))
	return k.result()
}

// wheelTrace adapts the timing-wheel Simulation to traceKernel.
type wheelTrace struct {
	s   *Simulation
	evs []*Event // nil once fired or cancelled (the struct is recycled)
	log []int
}

func (w *wheelTrace) now() Time { return w.s.Now() }
func (w *wheelTrace) schedule(id int, at Time) {
	w.evs = append(w.evs, w.s.Schedule(at, func(*Simulation) {
		w.log = append(w.log, id)
		w.evs[id] = nil
	}))
}
func (w *wheelTrace) live(id int) bool           { return w.evs[id] != nil }
func (w *wheelTrace) cancel(id int)              { w.evs[id].Cancel(); w.evs[id] = nil }
func (w *wheelTrace) reschedule(id int, at Time) { w.s.Reschedule(w.evs[id], at) }
func (w *wheelTrace) runUntil(end Time)          { w.s.RunUntil(end) }
func (w *wheelTrace) result() traceResult {
	return traceResult{w.log, w.s.Now(), w.s.EventsFired()}
}

// refEvent is one event of the reference kernel.
type refEvent struct {
	at   Time
	seq  uint64
	id   int
	idx  int // heap slot; -1 once popped
	dead bool
}

// refQueue is a container/heap min-heap ordered by (at, seq).
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	e.idx = -1
	*q = old[:len(old)-1]
	return e
}

// refKernel is the binary-heap reference the timing wheel is held to.
// It follows the kernel's ordering rules in the plainest form: events
// fire in (at, seq) order, seq bumps on every schedule and retime,
// cancel is lazy (a dead event is drained when it reaches the top),
// and a finite run horizon beyond the last event moves the clock to
// the horizon.
type refKernel struct {
	clock Time
	seq   uint64
	q     refQueue
	evs   []*refEvent
	fired uint64
	log   []int
}

func (k *refKernel) now() Time { return k.clock }

func (k *refKernel) schedule(id int, at Time) {
	e := &refEvent{at: at, seq: k.seq, id: id}
	k.seq++
	heap.Push(&k.q, e)
	k.evs = append(k.evs, e)
}

func (k *refKernel) live(id int) bool { return k.evs[id].idx >= 0 && !k.evs[id].dead }
func (k *refKernel) cancel(id int)    { k.evs[id].dead = true }

func (k *refKernel) reschedule(id int, at Time) {
	e := k.evs[id]
	e.at = at
	e.seq = k.seq
	k.seq++
	heap.Fix(&k.q, e.idx)
}

func (k *refKernel) runUntil(end Time) {
	for len(k.q) > 0 && k.q[0].at <= end {
		e := heap.Pop(&k.q).(*refEvent)
		if e.dead {
			continue
		}
		k.clock = e.at
		k.fired++
		k.log = append(k.log, e.id)
	}
	if !math.IsInf(float64(end), 1) && end > k.clock {
		k.clock = end
	}
}

func (k *refKernel) result() traceResult { return traceResult{k.log, k.clock, k.fired} }

// diffTrace runs ops on both kernels and describes the first
// divergence, or returns "" when they agree exactly.
func diffTrace(ops []traceOp) string {
	w, r := runTrace(&wheelTrace{s: New()}, ops), runTrace(&refKernel{}, ops)
	if w.now != r.now || w.fired != r.fired || len(w.log) != len(r.log) {
		return fmt.Sprintf("wheel now=%v fired=%d n=%d; heap now=%v fired=%d n=%d",
			w.now, w.fired, len(w.log), r.now, r.fired, len(r.log))
	}
	for i := range w.log {
		if w.log[i] != r.log[i] {
			return fmt.Sprintf("firing order diverges at %d: wheel %d, heap %d", i, w.log[i], r.log[i])
		}
	}
	return ""
}

// TestWheelMatchesHeap is the differential gate for the timing-wheel
// kernel: random schedule/cancel/retime/advance traces must produce a
// firing order bit-identical to the binary-heap reference, including
// seq tie-breaking at equal timestamps and events parked beyond the
// wheel horizon.
func TestWheelMatchesHeap(t *testing.T) {
	f := func(ops []traceOp) bool {
		if d := diffTrace(ops); d != "" {
			t.Log(d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// maxFuzzOps bounds one fuzz input's trace so every input runs in
// milliseconds.
const maxFuzzOps = 2048

// FuzzWheelVsHeap is the native-fuzz form of TestWheelMatchesHeap: the
// input is decoded four bytes per op (kind, which low, which high,
// delta) into a trace, and the wheel must fire it exactly as the
// reference heap does.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 3, 4, 0, 0, 4})                 // same-tick ties, then advance
	f.Add([]byte{0, 0, 0, 6, 0, 0, 0, 255, 3, 1, 0, 1, 4, 0, 0, 255}) // overflow, +Inf, retime, run to +Inf
	f.Add([]byte{0, 0, 0, 5, 1, 0, 0, 2, 2, 1, 0, 0, 3, 2, 0, 1, 4, 0, 0, 3, 0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0, 2, 4, 0, 0, 1, 1, 0, 0, 1, 3, 1, 0, 0, 4, 0, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		if n > maxFuzzOps {
			n = maxFuzzOps
		}
		ops := make([]traceOp, n)
		for i := range ops {
			b := data[4*i:]
			ops[i] = traceOp{Kind: b[0], Which: uint16(b[1]) | uint16(b[2])<<8, Delta: b[3]}
		}
		if d := diffTrace(ops); d != "" {
			t.Fatal(d)
		}
	})
}

// TestWheelCursorCarry pins the block-boundary case: promoting the
// last tick of a 64-tick block carries the cursor into the next block
// without cascading it, so an event already parked at level 1 for that
// block must still fire before later same-block events that land
// directly in level 0.
func TestWheelCursorCarry(t *testing.T) {
	const tick = 1.0 / tickHz
	s := New()
	var order []string
	s.Schedule(Time(64*tick), func(*Simulation) { order = append(order, "levelled") }) // level 1 while cursor is in block 0
	s.Schedule(Time(63*tick), func(sm *Simulation) {
		order = append(order, "last-of-block")
		// Scheduled after the carry to tick 64: lands in level 0.
		sm.Schedule(Time(65*tick), func(*Simulation) { order = append(order, "direct") })
	})
	s.Run()
	want := []string{"last-of-block", "levelled", "direct"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
}

// TestWheelLateScheduleBehindCursor pins the drain-merge case: peeking
// past the run horizon promotes a bucket and advances the cursor, and
// an event then scheduled into the already-promoted tick must still
// fire in timestamp order.
func TestWheelLateScheduleBehindCursor(t *testing.T) {
	const tick = 1.0 / tickHz
	s := New()
	var order []string
	s.Schedule(Time(100.7*tick), func(*Simulation) { order = append(order, "promoted") })
	// Stops short of the event but forces its bucket into the drain.
	s.RunUntil(Time(100.2 * tick))
	s.Schedule(Time(100.4*tick), func(*Simulation) { order = append(order, "late") })
	s.Run()
	if len(order) != 2 || order[0] != "late" || order[1] != "promoted" {
		t.Fatalf("firing order %v, want [late promoted]", order)
	}
}

// TestWheelOverflowRebase exercises the overflow list: events beyond
// the ~136-year wheel horizon park unordered, rebase onto the earliest
// when the wheel drains, and retimes can pull them back in.
func TestWheelOverflowRebase(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(3e10, func(*Simulation) { order = append(order, "far-b") })
	s.Schedule(2e10, func(*Simulation) { order = append(order, "far-a") })
	e := s.Schedule(4e10, func(*Simulation) { order = append(order, "retimed") })
	s.Schedule(5, func(*Simulation) { order = append(order, "near") })
	s.RunUntil(10)
	s.Reschedule(e, 2e10) // overflow -> overflow, ties by fresh seq
	s.Run()
	want := []string{"near", "far-a", "retimed", "far-b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("firing order %v, want %v", order, want)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after run, want 0", s.Pending())
	}
}

// TestWheelInfiniteTimestamp: events at +Inf never fire under a finite
// horizon but do fire, in seq order, under Run().
func TestWheelInfiniteTimestamp(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(Time(math.Inf(1)), func(*Simulation) { order = append(order, 1) })
	s.Schedule(Time(math.Inf(1)), func(*Simulation) { order = append(order, 2) })
	s.RunUntil(1e12)
	if len(order) != 0 {
		t.Fatalf("infinite events fired under a finite horizon: %v", order)
	}
	s.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("firing order %v, want [1 2]", order)
	}
}
