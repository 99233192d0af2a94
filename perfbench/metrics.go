package main

// metricDef describes one reported metric. BENCHMARK.json lists the
// same names, units, directions and bounds; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the end-to-end regression bound (share of the parent's
	// median); zero for per-layer metrics.
	bound float64
	// moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move; for an end-to-end metric, its meaning.
	moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median set-up before the first job or request: sweep expansion + exp.Prewarm from a cold factorization cache + dtmserved start"},
	{"sim_ticks_per_s", "ticks/s", "higher", 0.24, "median simulated 100 ms ticks per host second over a local sweep"},
	{"cold_req_ms_p50", "ms", "lower", 0.24, "sweep request for a spec's first occurrence, send to verified trailer"},
	{"cold_req_ms_p90", "ms", "lower", 0.24, "as cold_req_ms_p50, 90th percentile"},
	{"cold_ttfr_ms_p50", "ms", "lower", 0.24, "cold request: send to first streamed record"},
	{"cached_req_ms_p50", "ms", "lower", 0.24, "repeat request served from the LRU cache or by joining a job in flight"},
	{"cached_req_ms_p99", "ms", "lower", 0.24, "as cached_req_ms_p50, 99th percentile"},
	{"req_per_s", "req/s", "higher", 0.24, "closed-loop sequence items (sweep requests and whole sessions) per second"},
	{"session_frames_per_s", "frames/s", "higher", 0.24, "frames received per second of stream time, over all unpaced sessions"},
	{"heap_peak_mb", "MB", "lower", 0.24, "peak Go heap objects, sampled through runtime/metrics during measuring"},
}

// perLayer are the traced run's metrics, named by module. Each is
// reported on every workload; a layer that does not run on a workload
// (rollouts without MPC policies, reliability without tracking)
// reports 0.
var perLayer = []metricDef{
	{"sweep.expand_us", "us", "lower", 0, "setup_s on all workloads"},
	{"sweep.worker_busy_ratio", "ratio", "higher", 0, "sim_ticks_per_s on sweep-fig3 (tail idling behind long MPC jobs)"},
	{"exp.prewarm_ms", "ms", "lower", 0, "setup_s on sweep-grid"},
	{"thermal.factorizations", "count", "lower", 0, "setup_s on sweep-grid"},
	{"thermal.factor_cache_hit_ratio", "ratio", "higher", 0, "setup_s on sweep-grid"},
	{"exp.job_config_us", "us", "lower", 0, "cold_req_ms_p50, cold_ttfr_ms_p50 on served-mix"},
	{"floorplan.build_us", "us", "lower", 0, "cold_req_ms_p50, cold_ttfr_ms_p50 on served-mix"},
	{"workload.trace_cache_hit_ratio", "ratio", "higher", 0, "cold_req_ms_p50, cold_ttfr_ms_p50 on served-mix"},
	{"thermal.model_build_us", "us", "lower", 0, "cold_req_ms_p50, cold_ttfr_ms_p50 on served-mix"},
	{"sim.engine_setup_us", "us", "lower", 0, "cold_req_ms_p50, cold_ttfr_ms_p50 on served-mix"},
	{"sim.tick_us", "us", "lower", 0, "sim_ticks_per_s on sweep-fig3 and sweep-grid"},
	{"sim.finish_us", "us", "lower", 0, "sim_ticks_per_s on sweep-fig3 and sweep-grid"},
	{"sim.allocs_per_tick", "count", "lower", 0, "sim_ticks_per_s and heap_peak_mb on the sweeps"},
	{"sim.tick_other_us", "us", "lower", 0, "sim_ticks_per_s; the unattributed rest of a tick (sched, DPM, energy, observers)"},
	{"policy.tick_us", "us", "lower", 0, "sim_ticks_per_s on sweep-fig3; none on sweep-grid"},
	{"policy.assign_us", "us", "lower", 0, "sim_ticks_per_s on sweep-fig3; none on sweep-grid"},
	{"policy.rollout_us", "us", "lower", 0, "sim_ticks_per_s on sweep-fig3; none on sweep-grid"},
	{"policy.rollout_lane_ticks", "count", "lower", 0, "sim_ticks_per_s on sweep-fig3; none on sweep-grid"},
	{"power.compute_us", "us", "lower", 0, "sim_ticks_per_s on sweep-fig3"},
	{"thermal.step_us", "us", "lower", 0, "sim_ticks_per_s, mostly on sweep-grid"},
	{"thermal.readback_us", "us", "lower", 0, "sim_ticks_per_s on the sweeps"},
	{"metrics.record_us", "us", "lower", 0, "sim_ticks_per_s on sweep-fig3"},
	{"reliability.observe_us", "us", "lower", 0, "sim_ticks_per_s on sweep-grid"},
	{"server.handler_ms_p50.cold", "ms", "lower", 0, "cold_req_ms_p50 on served-mix"},
	{"server.handler_ms_p50.cached", "ms", "lower", 0, "cached_req_ms_p50, cached_req_ms_p99 on served-mix"},
	{"client.decode_ms_p50", "ms", "lower", 0, "cached_req_ms_p50, cached_req_ms_p99 on served-mix"},
	{"server.bytes_per_record", "B", "lower", 0, "cached_req_ms_p50, cached_req_ms_p99 on served-mix"},
	{"server.job_wait_ms_p50", "ms", "lower", 0, "cold_req_ms_p90, req_per_s on served-mix"},
	{"server.job_run_ms_p50", "ms", "lower", 0, "cold_req_ms_p90, req_per_s on served-mix"},
	{"server.cache_hit_ratio", "ratio", "higher", 0, "cold_req_ms_p90, req_per_s on served-mix"},
	{"server.inflight_joins", "count", "higher", 0, "cold_req_ms_p90, req_per_s on served-mix"},
	{"session.open_ms", "ms", "lower", 0, "session_frames_per_s on served-mix"},
	{"session.event_ms", "ms", "lower", 0, "session_frames_per_s on served-mix"},
	{"session.frame_us", "us", "lower", 0, "session_frames_per_s on served-mix"},
	{"session.bytes_per_frame", "B", "lower", 0, "session_frames_per_s on served-mix"},
	{"session.replay_frames_per_s", "frames/s", "higher", 0, "session_frames_per_s on served-mix"},
	{"runtime.gc_cpu_share", "ratio", "lower", 0, "heap_peak_mb and the throughput metrics"},
	{"trace.overhead.setup_s", "ratio", "lower", 0, "tracing cost: traced/untraced - 1 for setup_s"},
	{"trace.overhead.sim_ticks_per_s", "ratio", "lower", 0, "tracing cost: untraced/traced - 1 for sim_ticks_per_s"},
	{"trace.overhead.cold_req_ms_p50", "ratio", "lower", 0, "tracing cost: traced/untraced - 1 for cold_req_ms_p50"},
	{"trace.overhead.cold_req_ms_p90", "ratio", "lower", 0, "tracing cost: traced/untraced - 1 for cold_req_ms_p90"},
	{"trace.overhead.cold_ttfr_ms_p50", "ratio", "lower", 0, "tracing cost: traced/untraced - 1 for cold_ttfr_ms_p50"},
	{"trace.overhead.cached_req_ms_p50", "ratio", "lower", 0, "tracing cost: traced/untraced - 1 for cached_req_ms_p50"},
	{"trace.overhead.cached_req_ms_p99", "ratio", "lower", 0, "tracing cost: traced/untraced - 1 for cached_req_ms_p99"},
	{"trace.overhead.req_per_s", "ratio", "lower", 0, "tracing cost: untraced/traced - 1 for req_per_s"},
	{"trace.overhead.session_frames_per_s", "ratio", "lower", 0, "tracing cost: untraced/traced - 1 for session_frames_per_s"},
	{"trace.overhead.heap_peak_mb", "ratio", "lower", 0, "tracing cost: traced/untraced - 1 for heap_peak_mb"},
}

// overhead returns the tracing overhead of one end-to-end metric as a
// share of its untraced value, positive when tracing made it worse.
func overhead(def metricDef, untraced, traced float64) float64 {
	if untraced == 0 || traced == 0 {
		return 0
	}
	if def.better == "higher" {
		return untraced/traced - 1
	}
	return traced/untraced - 1
}
