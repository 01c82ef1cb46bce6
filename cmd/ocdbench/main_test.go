package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestOcdbenchSelfHostSmoke drives a short self-hosted run end to end
// — fleet build, prefill, paced stepper, closed-loop workers, digest
// merge — and checks the JSON report is coherent.
func TestOcdbenchSelfHostSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-servers", "48", "-workers", "2", "-duration", "150ms",
		"-step-batch", "2", "-step-period", "2ms",
		"-mix", "status=4,metrics=2,filter=1,prioritize=1,healthz=1",
		"-json",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors: %s", rep.Errors, out.String())
	}
	if rep.Requests == 0 || rep.RPS <= 0 {
		t.Fatalf("no load issued: %s", out.String())
	}
	if rep.P50Us <= 0 || rep.P99Us < rep.P50Us || rep.P999Us < rep.P99Us {
		t.Fatalf("quantiles out of order: p50=%v p99=%v p999=%v", rep.P50Us, rep.P99Us, rep.P999Us)
	}
	if len(rep.Endpoints) != 5 {
		t.Fatalf("want all 5 endpoints in report, got %d: %s", len(rep.Endpoints), out.String())
	}
	var sum int
	for _, e := range rep.Endpoints {
		sum += e.Requests
		if e.Requests > 0 && e.MaxUs < e.P999Us {
			t.Fatalf("endpoint %s: max %v below p999 %v", e.Endpoint, e.MaxUs, e.P999Us)
		}
	}
	if sum != rep.Requests {
		t.Fatalf("endpoint requests sum %d != total %d", sum, rep.Requests)
	}
}

// TestOcdbenchHumanReport checks the table renderer and that -addr
// targeting reuses an externally served daemon.
func TestOcdbenchHumanReport(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-servers", "24", "-workers", "1", "-duration", "80ms",
		"-step-period", "0s", "-mix", "status=1",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"ocdbench:", "self-hosted fleet: 24 servers", "status", "p99"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
}

func TestOcdbenchUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-workers", "0"},
		{"-duration", "0s"},
		{"-mix", "status"},
		{"-mix", "warp=1"},
		{"-mix", "status=-1"},
		{"-mix", ""},
		{"stray"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		full := append([]string{"-servers", "8", "-duration", "10ms"}, args...)
		if code := run(full, &out, &errb); code == 0 {
			t.Fatalf("args %v: want failure, got success\n%s", args, out.String())
		}
	}
}

// TestOcdbenchRejectsRemovedPublishWindowFlag pins that the retired
// group-commit flag is an unknown flag: usage error, exit 2.
func TestOcdbenchRejectsRemovedPublishWindowFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-publish-max-latency", "1ms"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "flag provided but not defined: -publish-max-latency") {
		t.Fatalf("stderr does not name the unknown flag:\n%s", errb.String())
	}
}

func TestParseMixSchedule(t *testing.T) {
	sched, err := parseMix("status=2, metrics=1,filter=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 3 {
		t.Fatalf("schedule %v, want 3 entries", sched)
	}
	n := map[string]int{}
	for _, s := range sched {
		n[s]++
	}
	if n["status"] != 2 || n["metrics"] != 1 || n["filter"] != 0 {
		t.Fatalf("schedule %v, want status×2 metrics×1", sched)
	}
}

// TestParseMixNormalizesWeights pins the gcd reduction: scaled weight
// lists collapse to the same minimal cycle, and the issued proportions
// are untouched.
func TestParseMixNormalizesWeights(t *testing.T) {
	a, err := parseMix("status=6,metrics=2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseMix("status=3,metrics=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 4 {
		t.Fatalf("scaled mix not normalized: %v vs %v", a, b)
	}
	n := map[string]int{}
	for _, s := range a {
		n[s]++
	}
	if n["status"] != 3 || n["metrics"] != 1 {
		t.Fatalf("normalized schedule %v, want status×3 metrics×1", a)
	}
	// Co-prime weights must pass through unreduced.
	c, err := parseMix("place=6,remove=5,overclock=4,status=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 16 {
		t.Fatalf("co-prime weights reduced: %v", c)
	}
}

// TestParseMixPresets checks each preset expands to a valid schedule
// with the documented emphasis.
func TestParseMixPresets(t *testing.T) {
	for name, want := range map[string]string{
		"read":  "status",
		"mixed": "status",
		"write": "place",
	} {
		sched, err := parseMix(name)
		if err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
		n := map[string]int{}
		for _, s := range sched {
			n[s]++
		}
		top, topN := "", 0
		for s, c := range n {
			if c > topN {
				top, topN = s, c
			}
		}
		if top != want {
			t.Fatalf("preset %s: dominant endpoint %s, want %s (schedule %v)", name, top, want, sched)
		}
	}
	// The write preset must carry all three mutating endpoints.
	sched, err := parseMix("write")
	if err != nil {
		t.Fatal(err)
	}
	n := map[string]int{}
	for _, s := range sched {
		n[s]++
	}
	if n["place"] == 0 || n["remove"] == 0 || n["overclock"] == 0 {
		t.Fatalf("write preset missing a mutating endpoint: %v", sched)
	}
}

// TestOcdbenchWriteMixSmoke drives the write preset end to end against
// a self-hosted fleet — placers, removers and overclockers through the
// real client — and requires an error-free run reporting all four
// endpoints.
func TestOcdbenchWriteMixSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-servers", "64", "-workers", "2", "-duration", "150ms",
		"-step-batch", "2", "-step-period", "2ms",
		"-mix", "write",
		"-json",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, out.String())
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors: %s", rep.Errors, out.String())
	}
	if len(rep.Endpoints) != 4 {
		t.Fatalf("want place/remove/overclock/status in report, got %d: %s", len(rep.Endpoints), out.String())
	}
	seen := map[string]bool{}
	for _, e := range rep.Endpoints {
		seen[e.Endpoint] = true
		if e.Requests == 0 {
			t.Fatalf("endpoint %s issued no requests: %s", e.Endpoint, out.String())
		}
	}
	for _, want := range []string{"place", "remove", "overclock", "status"} {
		if !seen[want] {
			t.Fatalf("endpoint %s missing from report: %s", want, out.String())
		}
	}
}
