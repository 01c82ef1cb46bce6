package telemetry

// The reference Prometheus writer: a direct rendering of a Snapshot,
// built fresh on every call. It is the oracle TestPromRendererMatchesSnapshot
// holds the plan-caching PromRenderer to.

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promSample is one (scope, suffix-labels, value) series point.
type promSample struct {
	scope  string
	le     string // bucket bound for _bucket samples, "" otherwise
	suffix string // "", "_total", "_bucket", "_sum", "_count"
	value  string
}

// promFamily is one metric name with its TYPE and ordered samples.
type promFamily struct {
	name    string
	kind    string // "counter", "gauge", "histogram"
	samples []promSample
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format under the namespace prefix ("" defaults to "immersionoc").
// A nil snapshot writes nothing and returns nil.
func (s *Snapshot) WritePrometheus(w io.Writer, namespace string) error {
	if s == nil {
		return nil
	}
	if namespace == "" {
		namespace = "immersionoc"
	}
	namespace = promName(namespace)

	fams := map[string]*promFamily{}
	family := func(name, kind string) *promFamily {
		full := namespace + "_" + promName(name)
		f := fams[full]
		if f == nil {
			f = &promFamily{name: full, kind: kind}
			fams[full] = f
		}
		return f
	}

	scopes := make([]string, 0, len(s.Scopes))
	for name := range s.Scopes {
		scopes = append(scopes, name)
	}
	sort.Strings(scopes)

	for _, scope := range scopes {
		ss := s.Scopes[scope]
		for _, name := range sortedKeys(ss.Counters) {
			f := family(name+"_total", "counter")
			f.samples = append(f.samples, promSample{
				scope: scope,
				value: strconv.FormatUint(ss.Counters[name], 10),
			})
		}
		for _, name := range sortedKeys(ss.Gauges) {
			f := family(name, "gauge")
			f.samples = append(f.samples, promSample{
				scope: scope,
				value: formatFloat(ss.Gauges[name]),
			})
		}
		for _, name := range sortedKeys(ss.Histograms) {
			h := ss.Histograms[name]
			f := family(name, "histogram")
			var cum uint64
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatFloat(h.Bounds[i])
				}
				f.samples = append(f.samples, promSample{
					scope: scope, suffix: "_bucket", le: le,
					value: strconv.FormatUint(cum, 10),
				})
			}
			f.samples = append(f.samples,
				promSample{scope: scope, suffix: "_sum", value: formatFloat(h.Sum)},
				promSample{scope: scope, suffix: "_count", value: strconv.FormatUint(h.Count, 10)})
		}
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s %s from the immersionoc telemetry registry.\n# TYPE %s %s\n",
			f.name, f.kind, strings.TrimPrefix(strings.TrimSuffix(f.name, "_total"), namespace+"_"), f.name, f.kind); err != nil {
			return err
		}
		for _, sm := range f.samples {
			labels := `scope="` + escapeLabel(sm.scope) + `"`
			if sm.le != "" {
				labels += `,le="` + escapeLabel(sm.le) + `"`
			}
			if _, err := fmt.Fprintf(w, "%s%s{%s} %s\n", f.name, sm.suffix, labels, sm.value); err != nil {
				return err
			}
		}
	}
	return nil
}
