// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and a priority queue of pending
// events. Events are functions scheduled to run at a virtual time; ties
// are broken by insertion order so runs are fully deterministic. All of
// the experiment harnesses in this repository (queueing, auto-scaling,
// cluster failover) are built on this kernel.
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"immersionoc/internal/telemetry"
)

// Time is a virtual timestamp measured in seconds from simulation start.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration = float64

// Seconds converts a time.Duration into simulation seconds.
func Seconds(d time.Duration) Duration { return d.Seconds() }

// Event is a scheduled callback. The callback receives the simulation so
// it can schedule follow-up events.
//
// Recycling contract: once an event has fired (or a cancelled event has
// been drained from the queue) the kernel recycles the struct through a
// free-list, and a later Schedule call may hand the same pointer out
// again for an unrelated event. A holder must therefore drop its
// reference when the event fires or after cancelling it; calling Cancel
// through a pointer retained past that moment could cancel whatever
// event the struct was reused for.
type Event struct {
	at  Time
	seq uint64
	fn  func(*Simulation)
	// idx is the event's slot in whichever queue container holds it
	// (wheel bucket slot, drain or overflow position); -1 when not
	// queued.
	idx  int
	loc  int32 // container code, see locNone and friends in wheel.go
	dead bool
}

// At reports the virtual time the event is scheduled for.
func (e *Event) At() Time { return e.at }

// Cancel prevents a pending event from firing. The dead event stays in
// the queue until the run loop drains past it (lazy deletion), at which
// point the struct is recycled. Cancelling an event that already fired
// is safe only while the pointer is still current — see the recycling
// contract on Event.
func (e *Event) Cancel() { e.dead = true }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.dead }

// Queued reports whether the event is still in the pending queue
// (i.e. it has neither fired nor been drained after cancellation).
func (e *Event) Queued() bool { return e.idx >= 0 }

// Simulation is a discrete-event simulator instance. The zero value is
// not usable; construct with New.
type Simulation struct {
	now     Time
	queue   *wheelQueue
	seq     uint64
	stopped bool
	fired   uint64
	// events is the telemetry counter RunUntil flushes fired-event
	// batches into (nil = telemetry off).
	events *telemetry.Counter
	// flushers run whenever a RunUntil/RunUntilCtx call returns,
	// including on cancellation (see OnFlush).
	flushers []func()
	// free recycles fired and drained-cancelled Event structs. The
	// kernel is single-goroutine, so a plain slice stack suffices; its
	// high-water mark is the peak number of simultaneously queued
	// events, not the event count of the run.
	free []*Event
}

// alloc returns an Event from the free-list, or a fresh one.
func (s *Simulation) alloc(at Time, fn func(*Simulation)) *Event {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.at, e.seq, e.fn, e.idx, e.loc, e.dead = at, s.seq, fn, -1, locNone, false
		return e
	}
	return &Event{at: at, seq: s.seq, fn: fn, idx: -1, loc: locNone}
}

// release recycles an event that left the queue. The callback reference
// is dropped immediately so captured state can be collected; dead is
// deliberately kept so Cancelled() stays truthful on a drained event
// until the struct is reused (alloc resets it).
func (s *Simulation) release(e *Event) {
	e.fn = nil
	s.free = append(s.free, e)
}

// OnFlush registers fn to run every time a RunUntil/RunUntilCtx call
// returns — normal completion, Stop, and cancellation alike. Engines
// that batch telemetry in goroutine-local accumulators (see
// telemetry.HistAccum) register their flush here so shared metrics
// are complete whenever the kernel hands control back.
func (s *Simulation) OnFlush(fn func()) {
	s.flushers = append(s.flushers, fn)
}

// SetTelemetry points the kernel's event counter at scope's "events"
// counter. RunUntil flushes in batches of ctxCheckEvery so the hot
// loop stays one local increment per event. A nil scope detaches.
func (s *Simulation) SetTelemetry(scope *telemetry.Scope) {
	s.events = scope.Counter("events")
}

// New returns an empty simulation with the clock at zero, backed by
// the timing-wheel event queue (wheel.go).
func New() *Simulation {
	return &Simulation{queue: newWheelQueue()}
}

// Now returns the current virtual time.
func (s *Simulation) Now() Time { return s.now }

// EventsFired returns the number of events executed so far.
func (s *Simulation) EventsFired() uint64 { return s.fired }

// Pending returns the number of events still queued (cancelled events
// count until the run loop drains past them).
func (s *Simulation) Pending() int { return s.queue.len() }

// Schedule queues fn to run at absolute virtual time at. Scheduling in
// the past (before Now) panics: it indicates a logic error in the model.
func (s *Simulation) Schedule(at Time, fn func(*Simulation)) *Event {
	if math.IsNaN(float64(at)) {
		panic("sim: schedule at NaN time")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, s.now))
	}
	e := s.alloc(at, fn)
	s.seq++
	s.queue.push(e)
	return e
}

// Reschedule moves a pending event to a new time in place: the queued
// struct is retimed and re-filed from its tracked slot, with no
// allocation and no dead tombstone left behind. The event's insertion
// sequence is bumped exactly as if it had been cancelled and scheduled
// anew, so tie-breaking against other events at the same timestamp is
// byte-for-byte identical to the cancel-then-reschedule idiom it
// replaces. Retiming an event that is not currently queued (it fired,
// was drained, or belongs to another simulation) or that has been
// cancelled indicates a logic error in the model and panics.
func (s *Simulation) Reschedule(e *Event, at Time) {
	if math.IsNaN(float64(at)) {
		panic("sim: reschedule at NaN time")
	}
	if at < s.now {
		panic(fmt.Sprintf("sim: reschedule at %v before now %v", at, s.now))
	}
	if !s.queue.queued(e) {
		panic("sim: reschedule of an event that is not queued")
	}
	if e.dead {
		panic("sim: reschedule of a cancelled event")
	}
	e.at = at
	e.seq = s.seq
	s.seq++
	s.queue.fix(e)
}

// After queues fn to run d seconds after the current time.
func (s *Simulation) After(d Duration, fn func(*Simulation)) *Event {
	return s.Schedule(s.now+Time(d), fn)
}

// Stop halts the run loop after the current event completes.
func (s *Simulation) Stop() { s.stopped = true }

// Run executes events until the queue drains or Stop is called.
func (s *Simulation) Run() {
	s.RunUntil(Time(math.Inf(1)))
}

// ctxCheckEvery is how many fired events pass between context checks
// in RunUntilCtx — frequent enough that cancellation lands within
// microseconds of wall time, rare enough that the check (one atomic
// load inside ctx.Err) is invisible in profiles. It doubles as the
// telemetry flush batch size.
const ctxCheckEvery = 256

// RunUntil executes events with timestamps <= end, then sets the clock
// to end (if end is finite and beyond the last event). Returns the
// number of events fired during this call.
func (s *Simulation) RunUntil(end Time) uint64 {
	n, _ := s.runUntil(nil, end)
	return n
}

// RunUntilCtx executes like RunUntil but polls ctx every ctxCheckEvery
// events and stops the loop as soon as cancellation is observed,
// returning the context error. This is the cancellation checkpoint
// every simulation-backed experiment harness runs through: a cancelled
// run stops mid-simulation instead of burning CPU to completion.
func (s *Simulation) RunUntilCtx(ctx context.Context, end Time) error {
	_, err := s.runUntil(ctx, end)
	return err
}

func (s *Simulation) runUntil(ctx context.Context, end Time) (uint64, error) {
	start := s.fired
	s.stopped = false
	var batch uint64
	flush := func() {
		s.events.Add(batch)
		batch = 0
		for _, fn := range s.flushers {
			fn()
		}
	}
	for !s.stopped {
		if batch >= ctxCheckEvery {
			s.events.Add(batch)
			batch = 0
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					flush()
					return s.fired - start, err
				}
			}
		}
		next := s.queue.peek()
		if next == nil || next.at > end {
			break
		}
		s.queue.pop()
		if next.dead {
			s.release(next)
			continue
		}
		s.now = next.at
		s.fired++
		batch++
		next.fn(s)
		s.release(next)
	}
	flush()
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return s.fired - start, err
		}
	}
	if !math.IsInf(float64(end), 1) && end > s.now {
		s.now = end
	}
	return s.fired - start, nil
}

// Step executes exactly one pending event (skipping cancelled ones) and
// reports whether an event was executed.
func (s *Simulation) Step() bool {
	for {
		e := s.queue.pop()
		if e == nil {
			return false
		}
		if e.dead {
			s.release(e)
			continue
		}
		s.now = e.at
		s.fired++
		e.fn(s)
		s.release(e)
		return true
	}
}

// Ticker invokes fn every period seconds starting at start, until the
// returned stop function is called or the simulation ends.
type Ticker struct {
	period Duration
	fn     func(*Simulation, Time)
	ev     *Event
	done   bool
}

// NewTicker schedules a periodic callback. period must be positive.
func (s *Simulation) NewTicker(start Time, period Duration, fn func(*Simulation, Time)) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{period: period, fn: fn}
	var tick func(*Simulation)
	tick = func(sm *Simulation) {
		if t.done {
			return
		}
		t.fn(sm, sm.Now())
		if !t.done {
			t.ev = sm.After(t.period, tick)
		} else {
			// The just-fired event is about to be recycled; drop the
			// reference so a late Stop cannot cancel its successor.
			t.ev = nil
		}
	}
	t.ev = s.Schedule(start, tick)
	return t
}

// Stop cancels future ticks. Safe to call more than once.
func (t *Ticker) Stop() {
	t.done = true
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}
