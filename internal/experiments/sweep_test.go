package experiments

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"immersionoc/internal/queueing"
)

// naiveQPSAt is the O(phases) linear scan the phase cursor replaced;
// kept here as the reference implementation the cursor must match
// bit-for-bit (its cumulative bounds accumulate in the same order).
func naiveQPSAt(phases []queueing.LoadPhase, duration, t float64) (qps, phaseEnd float64) {
	off := 0.0
	for _, ph := range phases {
		if t < off+ph.DurationS {
			return ph.QPS, off + ph.DurationS
		}
		off += ph.DurationS
	}
	return 0, duration
}

// TestPhaseCursorMatchesNaiveScan drives the incremental cursor over a
// multi-hundred-phase schedule with the monotone queries an arrival
// process makes — plus deliberate backward jumps — and requires exact
// float equality with the naive scan at every point.
func TestPhaseCursorMatchesNaiveScan(t *testing.T) {
	load := BurstyLoad{AvgQPS: 200, BurstFactor: 1.8, OnMeanS: 0.5, OffMeanS: 0.5}
	const duration = 300.0
	phases := load.Schedule(12345, duration)
	if len(phases) < 400 {
		t.Fatalf("want a multi-hundred-phase schedule, got %d phases", len(phases))
	}
	sched := newPhaseSchedule(phases, duration)

	cur := phaseCursor{s: sched}
	r := rand.New(rand.NewSource(99))
	tt := 0.0
	for i := 0; i < 20000; i++ {
		if i%500 == 499 {
			// Backward jump: a fresh driver starting earlier in the
			// schedule must binary-search back, not scan past the end.
			tt = r.Float64() * duration
		} else {
			tt += r.Float64() * 0.05
		}
		if tt > duration+5 {
			tt = r.Float64() * duration
		}
		gotQPS, gotEnd := cur.at(tt)
		wantQPS, wantEnd := naiveQPSAt(phases, duration, tt)
		if gotQPS != wantQPS || gotEnd != wantEnd {
			t.Fatalf("t=%v: cursor (%v, %v) != naive scan (%v, %v)", tt, gotQPS, gotEnd, wantQPS, wantEnd)
		}
	}

	// Past-the-end queries report rate 0 with the schedule duration.
	if qps, end := cur.at(duration + 1); qps != 0 || end != duration {
		t.Fatalf("past-end query = (%v, %v), want (0, %v)", qps, end, duration)
	}
}

// shortFig12 is a cheap Fig12 grid for worker-equivalence tests.
func shortFig12() Fig12Params {
	p := DefaultFig12Params()
	p.DurationS = 60
	p.PCoreSteps = []int{10, 14}
	return p
}

// TestFig12WorkersEquivalence: the Fig12 sweep returns identical
// points at any worker count.
func TestFig12WorkersEquivalence(t *testing.T) {
	p := shortFig12()
	serial, err := Fig12Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		pp := p
		pp.Workers = w
		par, err := Fig12Data(context.Background(), pp)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: grid diverges from serial:\n  serial:   %+v\n  parallel: %+v", w, serial, par)
		}
	}
}

// TestFig13WorkersEquivalence: the nine scenario runs return identical
// cells at any worker count.
func TestFig13WorkersEquivalence(t *testing.T) {
	p := DefaultFig13Params()
	p.DurationS = 60
	serial, err := Fig13Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	p.Workers = 8
	par, err := Fig13Data(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("fig13 cells diverge between serial and 8-wide runs")
	}
}

// TestFig9WorkersEquivalence covers the model-driven sweeps too: same
// rows at any worker count.
func TestFig9WorkersEquivalence(t *testing.T) {
	serial, err := Fig9Data(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig9Data(context.Background(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("fig9 rows diverge between serial and 8-wide runs")
	}

	cSerial, err := CoolingComparisonData(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	cPar, err := CoolingComparisonData(context.Background(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cSerial, cPar) {
		t.Fatal("cooling rows diverge between serial and 4-wide runs")
	}
}

// TestSchedulesHoistedOnce: the grid's shared burst schedule is
// expanded once and value-identical to the per-cell expansion the
// serial code performed.
func TestSchedulesHoistedOnce(t *testing.T) {
	p := shortFig12()
	s := expandSchedules(p)
	want := p.Load.Schedule(p.Seed*977, p.DurationS)
	if !reflect.DeepEqual(s.shared.phases, want) {
		t.Fatal("hoisted schedule differs from the legacy per-cell expansion")
	}
	if s.perVM != nil {
		t.Fatal("correlated grid should not carry per-VM schedules")
	}

	p.IndependentBursts = true
	s = expandSchedules(p)
	if len(s.perVM) != p.VMs {
		t.Fatalf("per-VM schedules = %d, want %d", len(s.perVM), p.VMs)
	}
	for i := range s.perVM {
		want := p.Load.Schedule(p.Seed*977+uint64(i)*7919, p.DurationS)
		if !reflect.DeepEqual(s.perVM[i].phases, want) {
			t.Fatalf("VM %d schedule differs from the legacy seed formula", i)
		}
		if s.vmSchedule(i) != s.perVM[i] {
			t.Fatalf("vmSchedule(%d) not the private schedule", i)
		}
	}
}
