package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"immersionoc/internal/experiments"
	"immersionoc/internal/runner"
)

// evalDigestsJSON holds the SHA-256 of every experiment's result text
// at the calibrated seeds: the `octl all` byte-identity invariant.
//
//go:embed evaluation_digests.json
var evalDigestsJSON []byte

// evalConfig sizes the evaluation workload.
type evalConfig struct {
	// Names selects experiments; nil runs experiments.Tables(), the
	// `octl all` set.
	Names []string
	// Seed is experiments.Options.Seed: 0 runs the calibrated seeds
	// and checks the stored digests; any other seed records its
	// digests in the metadata, for comparing two commits.
	Seed uint64
}

func defaultEvalConfig() evalConfig { return evalConfig{} }

// simScopes are the experiments whose "events" telemetry counter feeds
// sim.events: the discrete-event simulations of the evaluation.
var simScopes = []string{"fig15", "fig16", "table11"}

// evalSelection resolves the experiment list and the digests to check
// it against: the evaluation's whole set-up.
func evalSelection(ec evalConfig) ([]experiments.Experiment, map[string]string, error) {
	var want map[string]string
	if err := json.Unmarshal(evalDigestsJSON, &want); err != nil {
		return nil, nil, fmt.Errorf("stored digests: %w", err)
	}
	if ec.Names == nil {
		return experiments.Tables(), want, nil
	}
	var sel []experiments.Experiment
	for _, n := range ec.Names {
		e, ok := experiments.Lookup(n)
		if !ok {
			return nil, nil, fmt.Errorf("unknown experiment %q", n)
		}
		sel = append(sel, e)
	}
	return sel, want, nil
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:])
}

// setupReps is how often the evaluation repeats its (microsecond-scale)
// set-up so the median is stable.
const setupReps = 101

func runEvaluation(ec evalConfig, p params, tr *tracer) (*result, error) {
	res := newResult()
	var setups []float64
	var sel []experiments.Experiment
	var want map[string]string
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		sel, want, err = evalSelection(ec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.e2e["setup_s"] = median(setups)

	workers := runtime.GOMAXPROCS(0)
	var walls []float64
	var last *runner.Report
	digests := map[string]string{}
	start := time.Now()
	for len(walls) == 0 || time.Since(start)+time.Duration(walls[len(walls)-1]*float64(time.Millisecond)) <= p.window {
		runID, endRun := tr.begin("runner.run", 0)
		exps := sel
		if tr != nil {
			exps = make([]experiments.Experiment, len(sel))
			for i, e := range sel {
				e := e
				inner := e.Run
				e.Run = func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
					_, end := tr.begin("exp."+e.Name, runID)
					defer end()
					return inner(ctx, o)
				}
				exps[i] = e
			}
		}
		rep := runner.Run(context.Background(), exps, runner.Config{
			Workers: workers,
			Options: experiments.Options{Seed: ec.Seed},
		})
		endRun()
		last = rep
		walls = append(walls, float64(rep.Wall)/float64(time.Millisecond))
		for _, o := range rep.Outcomes {
			res.check(o.OK(), "experiment %s: %v", o.Name, o.Err)
			if !o.OK() {
				continue
			}
			d := digest(o.Result.Text())
			if prev, seen := digests[o.Name]; seen {
				res.check(d == prev, "experiment %s output changed between evaluations", o.Name)
			}
			digests[o.Name] = d
			if ec.Seed == 0 {
				res.check(d == want[o.Name], "experiment %s digest %s, stored %s", o.Name, d, want[o.Name])
			}
		}
	}
	res.ops = float64(len(walls))
	res.meta["evaluations"] = len(walls)
	res.meta["digests"] = digests
	res.meta["experiment_seed"] = ec.Seed

	// One evaluation is the unit of work, so its tail is the slowest
	// evaluation in the window (with one evaluation, its makespan).
	res.e2e["tail_ms"] = slices.Max(walls)
	wall := median(walls)
	res.e2e["wall_ms"] = wall
	res.e2e["rate_per_s"] = float64(len(sel)) / (wall / 1000)

	if tr != nil {
		ix := indexSpans(tr.snapshot())
		n := float64(len(walls))
		for _, e := range evalExperiments {
			res.layers["exp."+e+".wall_s"] = ix.total("exp."+e, false, time.Second) / n
		}
		serial := last.TotalExperimentTime().Seconds()
		res.layers["runner.serial_s"] = serial
		res.layers["runner.efficiency"] = serial / (last.Wall.Seconds() * float64(last.Workers))
		var events uint64
		simWall := 0.0
		if last.Telemetry != nil {
			for _, s := range simScopes {
				events += last.Telemetry.Scopes[s].Counters["events"]
			}
		}
		for _, o := range last.Outcomes {
			if slices.Contains(simScopes, o.Name) {
				simWall += o.Wall.Seconds()
			}
		}
		res.layers["sim.events"] = float64(events)
		if simWall > 0 {
			res.layers["sim.events_per_s"] = float64(events) / simWall
		}
	}
	return res, nil
}
