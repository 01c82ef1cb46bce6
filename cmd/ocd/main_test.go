package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadArguments pins that a rejected flag value exits 2
// with the reason on stderr, printed once.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "ocd: -scale must be positive\n"},
		{[]string{"-mode", "bogus"}, "ocd: -mode must be \"stepped\" or \"scaled\"\n"},
		{[]string{"-shards", "-1"}, "ocd: -shards must be non-negative\n"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stderr strings.Builder
			if code := run(tc.args, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if stderr.String() != tc.want {
				t.Fatalf("stderr %q, want %q", stderr.String(), tc.want)
			}
		})
	}
}

// TestRunRejectsRemovedPublishWindowFlag pins that the retired
// group-commit flag is an unknown flag: usage error, exit 2.
func TestRunRejectsRemovedPublishWindowFlag(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-publish-max-latency", "1ms"}, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -publish-max-latency") {
		t.Fatalf("stderr does not name the unknown flag:\n%s", stderr.String())
	}
}

// TestRunReportsFlagErrorOnce pins that a flag the FlagSet cannot
// parse is reported by the FlagSet alone, not again by run.
func TestRunReportsFlagErrorOnce(t *testing.T) {
	var stderr strings.Builder
	if code := run([]string{"-shards", "many"}, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	out := stderr.String()
	if n := strings.Count(out, `invalid value "many"`); n != 1 {
		t.Fatalf("parse error printed %d times, want once:\n%s", n, out)
	}
	if strings.Contains(out, "ocd: ") {
		t.Fatalf("parse error re-reported by run:\n%s", out)
	}
}

func writeFleet(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFleetValid(t *testing.T) {
	path := writeFleet(t, `{
		"servers": 48, "servers_per_tank": 12, "oversub_ratio": 0.25,
		"feeder_budget_w": 9000, "step_s": 30, "duration_s": 3600,
		"trace": {"seed": 5, "arrival_rate_per_s": 0.5, "mean_lifetime_s": 600}
	}`)
	cfg, err := loadFleet(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Servers != 48 || cfg.ServersPerTank != 12 || cfg.OversubRatio != 0.25 ||
		cfg.FeederBudgetW != 9000 || cfg.StepS != 30 || cfg.Trace.DurationS != 3600 {
		t.Fatalf("fleet fields not applied: %+v", cfg)
	}
	if cfg.Trace.Seed != 5 || cfg.Trace.ArrivalRatePerS != 0.5 || cfg.Trace.MeanLifetimeS != 600 {
		t.Fatalf("trace fields not applied: %+v", cfg.Trace)
	}
	if cfg.Events != nil {
		t.Fatal("a fleet with a trace must replay it, not start open-loop")
	}
	if cfg, err = loadFleet(path, 9); err != nil || cfg.Trace.Seed != 9 {
		t.Fatalf("-seed override: seed %d, err %v", cfg.Trace.Seed, err)
	}
}

func TestLoadFleetUnknownKey(t *testing.T) {
	_, err := loadFleet(writeFleet(t, `{"server": 10}`), 0)
	if err == nil || !strings.Contains(err.Error(), `unknown field "server"`) {
		t.Fatalf("err = %v, want an unknown-field error naming \"server\"", err)
	}
	_, err = loadFleet(writeFleet(t, `{"trace": {"arrival_rate": 1}}`), 0)
	if err == nil || !strings.Contains(err.Error(), `unknown field "arrival_rate"`) {
		t.Fatalf("err = %v, want an unknown-field error inside trace", err)
	}
}

func TestLoadFleetMalformed(t *testing.T) {
	for _, body := range []string{`{"servers": 10`, `{"servers": "ten"}`, `{"servers": 10} {}`, ``} {
		if _, err := loadFleet(writeFleet(t, body), 0); err == nil {
			t.Errorf("loadFleet accepted %q", body)
		}
	}
}
