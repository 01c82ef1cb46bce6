package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; Parent is 0 for a root span. Spans of one client
// cycle share the cycle span as their ancestor.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op and begin returns 0, so
// workloads call it unconditionally.
type tracer struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer clock; 0 when tracing is off.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// newID reserves a span ID so a caller can hand it to children (over
// HTTP, say) before the span itself is recorded.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span.
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a span; the returned closer records it and returns its
// ID. The closer is safe to call on a nil tracer.
func (t *tracer) begin(name string, parent uint64) (id uint64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	id = t.newID()
	start := t.now()
	return id, func() { t.record(span{ID: id, Parent: parent, Name: name, Start: start, End: t.now()}) }
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its
// interval covered by its children (overlapping children count once),
// indexed like spans.
func selfTimes(spans []span) []int64 {
	idx := make(map[uint64]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	kids := make(map[int][]int)
	for i, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			kids[p] = append(kids[p], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ch := kids[i]
		if len(ch) == 0 {
			out[i] = s.dur()
			continue
		}
		type iv struct{ a, b int64 }
		ivs := make([]iv, 0, len(ch))
		for _, c := range ch {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		for k, v := range ivs {
			switch {
			case k == 0:
				curA, curB = v.a, v.b
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks; NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is the distribution of one sample set.
type summary struct {
	N             int
	Mean          float64
	P50, P95, P99 float64
}

// summarize sorts xs in place and summarizes it. An empty set
// summarizes to zeros, so an unexercised layer reports 0.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sort.Float64s(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return summary{
		N:    len(xs),
		Mean: sum / float64(len(xs)),
		P50:  quantile(xs, 0.50),
		P95:  quantile(xs, 0.95),
		P99:  quantile(xs, 0.99),
	}
}

// median of xs (sorted in place); NaN when empty.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// spanIndex groups spans by name, keeping each span's self time.
type spanIndex struct {
	spans []span
	self  []int64
	names map[string][]int
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, self: selfTimes(spans), names: map[string][]int{}}
	for i, s := range spans {
		ix.names[s.Name] = append(ix.names[s.Name], i)
	}
	return ix
}

// durations returns the durations (self=false) or self times (true) of
// the spans named name, in the given unit.
func (ix *spanIndex) durations(name string, self bool, unit time.Duration) []float64 {
	is := ix.names[name]
	out := make([]float64, len(is))
	for k, i := range is {
		d := ix.spans[i].dur()
		if self {
			d = ix.self[i]
		}
		out[k] = float64(d) / float64(unit)
	}
	return out
}

// total sums durations (or self times) of the spans named name.
func (ix *spanIndex) total(name string, self bool, unit time.Duration) float64 {
	sum := 0.0
	for _, d := range ix.durations(name, self, unit) {
		sum += d
	}
	return sum
}

// mustFinite guards a metric against NaN/Inf leaking into the result.
func mustFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s is not finite (%v)", name, v)
	}
	return nil
}
