package telemetry

// PromRenderer is the Prometheus exposition writer: it renders a live
// Registry without building an intermediate Snapshot, and with zero
// steady-state allocations. Its output is pinned byte for byte to a
// reference writer over a fresh Snapshot, kept in the tests.
//
// The renderer exploits the registry's shape being append-only: scopes
// and metrics are created once and never removed, so the expensive
// parts of exposition — name sanitization, sort order, HELP/TYPE
// headers, label escaping, bucket bound formatting — depend only on
// the *shape* (which scopes and metric names exist), not on the
// values. The renderer caches a fully ordered render plan whose lines
// are pre-rendered up to the value byte, holds the typed metric
// handles, and on each scrape appends just the atomic-loaded values.
// A cheap shape probe (scope count plus per-scope map sizes) detects
// new registrations and rebuilds the plan; between registrations a
// scrape is a walk over the plan plus one Write.
//
// A PromRenderer is NOT safe for concurrent use — callers that serve
// scrapes concurrently keep a sync.Pool of renderers (each warms its
// own plan and buffer).

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// promItem is one cached sample line: everything up to the value byte
// pre-rendered, plus the typed handle the value is loaded from. For
// histograms one item carries the whole expansion (buckets, _sum,
// _count) because the cumulative bucket walk shares one pass over the
// atomic counts.
type promItem struct {
	pre []byte // bytes up to and including the space before the value
	ctr *Counter
	g   *Gauge
	h   *Histogram
	// Histogram expansion: per-bucket preludes (le pre-formatted,
	// +Inf last), then _sum and _count preludes.
	bucketPre [][]byte
	sumPre    []byte
	countPre  []byte
}

// promFam is one cached family: its HELP/TYPE header plus ordered
// sample items.
type promFam struct {
	name   string
	kind   string
	header []byte
	items  []promItem
}

// promScopeShape records the per-scope metric counts the staleness
// probe compares against.
type promScopeShape struct {
	s          *Scope
	nc, ng, nh int
}

// PromRenderer renders one registry under one namespace. See the
// package comment above for the caching contract.
type PromRenderer struct {
	reg       *Registry
	namespace string // sanitized, defaulted

	scopes []promScopeShape
	fams   []*promFam
	buf    []byte
}

// NewPromRenderer builds a renderer for reg under the namespace prefix
// ("" defaults to "immersionoc"). The render plan is built lazily on
// first Render.
func NewPromRenderer(reg *Registry, namespace string) *PromRenderer {
	if namespace == "" {
		namespace = "immersionoc"
	}
	return &PromRenderer{reg: reg, namespace: promName(namespace)}
}

// Render writes the registry's current state in Prometheus text
// exposition format (see prom.go for the mapping). A nil or Off
// registry writes nothing.
func (r *PromRenderer) Render(w io.Writer) error {
	if r.reg == nil || r.reg.off {
		return nil
	}
	if r.stale() {
		r.rebuild()
	}
	buf := r.buf[:0]
	for _, f := range r.fams {
		buf = append(buf, f.header...)
		for i := range f.items {
			it := &f.items[i]
			switch {
			case it.ctr != nil:
				buf = append(buf, it.pre...)
				buf = strconv.AppendUint(buf, it.ctr.Value(), 10)
				buf = append(buf, '\n')
			case it.g != nil:
				buf = append(buf, it.pre...)
				buf = strconv.AppendFloat(buf, it.g.Value(), 'g', -1, 64)
				buf = append(buf, '\n')
			case it.h != nil:
				// One pass over the atomic counts renders the cumulative
				// buckets; the final cumulative value IS the _count, so
				// the expansion is self-consistent even if observations
				// land mid-scrape.
				var cum uint64
				for b := range it.h.counts {
					cum += it.h.counts[b].Load()
					buf = append(buf, it.bucketPre[b]...)
					buf = strconv.AppendUint(buf, cum, 10)
					buf = append(buf, '\n')
				}
				buf = append(buf, it.sumPre...)
				buf = strconv.AppendFloat(buf, it.h.Sum(), 'g', -1, 64)
				buf = append(buf, '\n')
				buf = append(buf, it.countPre...)
				buf = strconv.AppendUint(buf, cum, 10)
				buf = append(buf, '\n')
			}
		}
	}
	r.buf = buf
	_, err := w.Write(buf)
	return err
}

// stale reports whether the registry grew metrics or scopes since the
// plan was built. Registrations are rare (start-up, first use) and
// removals impossible, so comparing counts is exact.
func (r *PromRenderer) stale() bool {
	r.reg.mu.RLock()
	n := len(r.reg.scopes)
	r.reg.mu.RUnlock()
	if n != len(r.scopes) {
		return true
	}
	for i := range r.scopes {
		sc := &r.scopes[i]
		sc.s.mu.RLock()
		same := len(sc.s.counters) == sc.nc &&
			len(sc.s.gauges) == sc.ng &&
			len(sc.s.histograms) == sc.nh
		sc.s.mu.RUnlock()
		if !same {
			return true
		}
	}
	return false
}

// rebuild reconstructs the render plan in exposition order: scopes
// sorted, per-scope metric names sorted (counters, then gauges, then
// histograms), families emitted in sorted-name order with
// first-registration-wins TYPE.
func (r *PromRenderer) rebuild() {
	r.reg.mu.RLock()
	scopes := make([]*Scope, 0, len(r.reg.scopes))
	for _, s := range r.reg.scopes {
		scopes = append(scopes, s)
	}
	r.reg.mu.RUnlock()
	sort.Slice(scopes, func(i, j int) bool { return scopes[i].name < scopes[j].name })

	fams := map[string]*promFam{}
	family := func(name, kind string) *promFam {
		full := r.namespace + "_" + promName(name)
		f := fams[full]
		if f == nil {
			f = &promFam{name: full, kind: kind}
			fams[full] = f
		}
		return f
	}
	labels := func(scope, le string) string {
		l := `scope="` + escapeLabel(scope) + `"`
		if le != "" {
			l += `,le="` + escapeLabel(le) + `"`
		}
		return l
	}
	pre := func(f *promFam, suffix, scope, le string) []byte {
		return []byte(f.name + suffix + "{" + labels(scope, le) + "} ")
	}

	r.scopes = r.scopes[:0]
	for _, s := range scopes {
		s.mu.RLock()
		r.scopes = append(r.scopes, promScopeShape{
			s: s, nc: len(s.counters), ng: len(s.gauges), nh: len(s.histograms),
		})
		for _, name := range sortedKeys(s.counters) {
			f := family(name+"_total", "counter")
			f.items = append(f.items, promItem{pre: pre(f, "", s.name, ""), ctr: s.counters[name]})
		}
		for _, name := range sortedKeys(s.gauges) {
			f := family(name, "gauge")
			f.items = append(f.items, promItem{pre: pre(f, "", s.name, ""), g: s.gauges[name]})
		}
		for _, name := range sortedKeys(s.histograms) {
			h := s.histograms[name]
			f := family(name, "histogram")
			it := promItem{h: h, bucketPre: make([][]byte, len(h.counts))}
			for b := range h.counts {
				le := "+Inf"
				if b < len(h.bounds) {
					le = formatFloat(h.bounds[b])
				}
				it.bucketPre[b] = pre(f, "_bucket", s.name, le)
			}
			it.sumPre = pre(f, "_sum", s.name, "")
			it.countPre = pre(f, "_count", s.name, "")
			f.items = append(f.items, it)
		}
		s.mu.RUnlock()
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	r.fams = r.fams[:0]
	for _, name := range names {
		f := fams[name]
		f.header = []byte(fmt.Sprintf("# HELP %s %s %s from the immersionoc telemetry registry.\n# TYPE %s %s\n",
			f.name, f.kind, trimFamily(f.name, r.namespace), f.name, f.kind))
		r.fams = append(r.fams, f)
	}
}

// trimFamily strips the namespace prefix and counter suffix for the
// HELP line.
func trimFamily(name, namespace string) string {
	if len(name) >= 6 && name[len(name)-6:] == "_total" {
		name = name[:len(name)-6]
	}
	p := namespace + "_"
	if len(name) >= len(p) && name[:len(p)] == p {
		name = name[len(p):]
	}
	return name
}
