package telemetry

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promFixture builds a registry with every metric kind, including a
// name that needs sanitization and a second scope sharing a metric
// name with the first (must fold into one family via the scope label).
func promFixture() *Registry {
	reg := NewRegistry()
	s := reg.Scope("dcsim")
	s.Counter("rejected").Add(7)
	s.Counter("cap_events").Add(2)
	s.Gauge("row_power_w").Set(12543.25)
	s.Gauge("bath.peak-c").Set(49.5)
	h := s.Histogram("step_wall_s", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.02)
	h.Observe(0.02)
	h.Observe(5)
	reg.Scope("dcsim/cell-1").Counter("rejected").Add(3)
	return reg
}

const promGolden = `# HELP ocd_bath_peak_c gauge bath_peak_c from the immersionoc telemetry registry.
# TYPE ocd_bath_peak_c gauge
ocd_bath_peak_c{scope="dcsim"} 49.5
# HELP ocd_cap_events_total counter cap_events from the immersionoc telemetry registry.
# TYPE ocd_cap_events_total counter
ocd_cap_events_total{scope="dcsim"} 2
# HELP ocd_rejected_total counter rejected from the immersionoc telemetry registry.
# TYPE ocd_rejected_total counter
ocd_rejected_total{scope="dcsim"} 7
ocd_rejected_total{scope="dcsim/cell-1"} 3
# HELP ocd_row_power_w gauge row_power_w from the immersionoc telemetry registry.
# TYPE ocd_row_power_w gauge
ocd_row_power_w{scope="dcsim"} 12543.25
# HELP ocd_step_wall_s histogram step_wall_s from the immersionoc telemetry registry.
# TYPE ocd_step_wall_s histogram
ocd_step_wall_s_bucket{scope="dcsim",le="0.001"} 1
ocd_step_wall_s_bucket{scope="dcsim",le="0.01"} 1
ocd_step_wall_s_bucket{scope="dcsim",le="0.1"} 3
ocd_step_wall_s_bucket{scope="dcsim",le="+Inf"} 4
ocd_step_wall_s_sum{scope="dcsim"} 5.0405
ocd_step_wall_s_count{scope="dcsim"} 4
`

// TestWritePrometheusGolden pins the full text exposition PromRenderer
// writes for a fixed registry: counters with _total, gauges, the
// cumulative histogram series, sanitized names, scope labels,
// deterministic order.
func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := NewPromRenderer(promFixture(), "ocd").Render(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != promGolden {
		t.Errorf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, promGolden)
	}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)\{([^}]*)\} (\S+)$`)
	labelPairRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// TestWritePrometheusLint validates PromRenderer's exposition the way
// promlint does: every line parses, every name is legal, counters end in
// _total, every sample's base name has a preceding TYPE line, and
// histogram bucket counts are cumulative and consistent with _count.
func TestWritePrometheusLint(t *testing.T) {
	reg := promFixture()
	// A hostile metric name must still sanitize to something legal.
	reg.Scope("dcsim").Gauge("util.v8-large (burst)").Set(1)

	var b strings.Builder
	if err := NewPromRenderer(reg, "ocd").Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("exposition must end with a newline")
	}

	typed := map[string]string{} // base name -> type
	bucketCum := map[string]uint64{}
	for ln, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("line %d: malformed TYPE: %q", ln+1, line)
				continue
			}
			name, kind := parts[2], parts[3]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: illegal metric name %q", ln+1, name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("line %d: unknown type %q", ln+1, kind)
			}
			if kind == "counter" && !strings.HasSuffix(name, "_total") {
				t.Errorf("line %d: counter %q lacks the _total suffix", ln+1, name)
			}
			typed[name] = kind
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample: %q", ln+1, line)
			continue
		}
		name, labels := m[1], m[2]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suf); ok && typed[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		if _, ok := typed[base]; !ok {
			t.Errorf("line %d: sample %q has no preceding TYPE line", ln+1, name)
		}
		for _, pair := range strings.Split(labels, ",") {
			lm := labelPairRe.FindStringSubmatch(pair)
			if lm == nil {
				t.Errorf("line %d: malformed label pair %q", ln+1, pair)
				continue
			}
			if !labelNameRe.MatchString(lm[1]) {
				t.Errorf("line %d: illegal label name %q", ln+1, lm[1])
			}
		}
		if strings.HasSuffix(name, "_bucket") && typed[base] == "histogram" {
			v, err := strconv.ParseUint(m[3], 10, 64)
			if err != nil {
				t.Errorf("line %d: bucket value %q not an integer: %v", ln+1, m[3], err)
				continue
			}
			key := base + "|" + scopeOf(labels)
			if v < bucketCum[key] {
				t.Errorf("line %d: bucket counts not cumulative for %s: %d < %d", ln+1, name, v, bucketCum[key])
			}
			bucketCum[key] = v
		}
	}
	if typed["ocd_util_v8_large_burst"] != "gauge" {
		t.Errorf("sanitized name missing; typed = %v", typed)
	}
}

func scopeOf(labels string) string {
	for _, pair := range strings.Split(labels, ",") {
		if m := labelPairRe.FindStringSubmatch(pair); m != nil && m[1] == "scope" {
			return m[2]
		}
	}
	return ""
}

// TestWritePrometheusNilSnapshot pins that telemetry off writes
// nothing: a nil or Off registry's nil snapshot through the reference
// writer, and the registry itself through PromRenderer.
func TestWritePrometheusNilSnapshot(t *testing.T) {
	for _, reg := range []*Registry{nil, Off} {
		var ref, got strings.Builder
		if err := reg.Snapshot().WritePrometheus(&ref, "ocd"); err != nil || ref.Len() != 0 {
			t.Fatalf("nil snapshot: err=%v out=%q", err, ref.String())
		}
		if err := NewPromRenderer(reg, "ocd").Render(&got); err != nil || got.Len() != 0 {
			t.Fatalf("off registry: err=%v out=%q", err, got.String())
		}
	}
}
