package main

// Per-layer metric names, in the order BENCHMARK.json lists them. A
// traced run reports all of them; a layer the workload does not call
// reads 0 (README.md has the table of which workload moves which).

// evalExperiments are the experiments whose wall time the evaluation
// reports per layer: every one above about 0.5 s on the reference host.
var evalExperiments = []string{
	"fig12", "fig13", "fig15", "fig16", "table11",
	"ablation-eq1", "ablation-bursts", "policies", "diurnal",
}

// servedRoutes are the ocd routes the serving clients call.
var servedRoutes = []string{"filter", "prioritize", "status", "place", "remove", "overclock"}

func layerMetrics() []metricDef {
	var ms []metricDef
	for _, e := range evalExperiments {
		ms = append(ms, metricDef{"exp." + e + ".wall_s", "s"})
	}
	ms = append(ms,
		metricDef{"runner.serial_s", "s"},
		metricDef{"runner.efficiency", "ratio"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.events_per_s", "1/s"},
		metricDef{"fleet.place_ms", "ms"},
		metricDef{"fleet.step_ms", "ms"},
		metricDef{"fleet.decide_ms", "ms"},
		metricDef{"fleet.snapshot_ms", "ms"},
		metricDef{"fleet.events_per_step", "count"},
		metricDef{"fleet.grants_per_step", "count"},
		metricDef{"setup.trace_s", "s"},
		metricDef{"setup.sim_new_s", "s"},
		metricDef{"setup.prefill_s", "s"},
	)
	for _, r := range servedRoutes {
		ms = append(ms,
			metricDef{r + ".handler_p50_us", "us"},
			metricDef{r + ".handler_p99_us", "us"},
			metricDef{r + ".rtt_p50_us", "us"},
			metricDef{r + ".rtt_p99_us", "us"},
		)
	}
	ms = append(ms,
		metricDef{"filter.resp_kb", "KiB"},
		metricDef{"transport_p50_us", "us"},
		metricDef{"ctl.steps", "count"},
		metricDef{"ctl.drift_s", "s"},
		metricDef{"overclock.grant_ratio", "ratio"},
		metricDef{"place.placed_ratio", "ratio"},
		metricDef{"gc.cpu_s", "s"},
		metricDef{"mallocs_per_op", "count"},
	)
	return ms
}
