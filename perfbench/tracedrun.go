package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/sim"
	"repro/internal/sweep"
)

// runTracedSweep runs a local sweep job by job through the tracer's
// runner on one worker per CPU, without grouping, and returns its
// canonical stream — which must equal the untraced sweep's.
func runTracedSweep(ctx context.Context, jobs []sweep.Job, t *tracer) (sweepResult, error) {
	var res sweepResult
	var col sweep.Collector
	ticks := &tickSink{}
	t0 := time.Now()
	if _, err := sweep.Execute(ctx, jobs, t.runJob, sweep.Options{}, &col, ticks); err != nil {
		return res, err
	}
	res.wall = time.Since(t0)
	res.ticks = ticks.ticks.Load()
	stream, err := canonicalStream(jobs, col.Records)
	res.stream = stream
	return res, err
}

// tracedRun is the --trace 1 run: an untraced pass, then a traced
// pass over the same seed, then a serial allocation probe. The traced
// pass's sweeps must equal an untraced sweep on its factorization, and
// every stream the traced server runner produced must equal the local
// one. It returns the per-layer metrics.
func tracedRun(ctx context.Context, w benchWorkload, seed int64, budget time.Duration, g *gate, stamp map[string]any) (map[string]float64, error) {
	plain, err := runPass(ctx, w, seed, budget, g, nil)
	if err != nil {
		return nil, err
	}
	plainE2E, _, err := plain.endToEnd(false)
	if err != nil {
		return nil, err
	}

	t := newTracer()
	h := &passHooks{t: t, st: &servedTracer{t: t}}
	traced, err := runPass(ctx, w, seed, budget, g, h)
	if err != nil {
		return nil, err
	}
	tracedE2E, _, err := traced.endToEnd(false)
	if err != nil {
		return nil, err
	}

	allocs, err := allocProbe(w, seed)
	if err != nil {
		return nil, err
	}

	out := layerMetrics(plain, traced, h, allocs)
	for _, d := range endToEnd {
		out["trace.overhead."+d.name] = overhead(d, plainE2E[d.name], tracedE2E[d.name])
	}

	path := traceFile(w, seed)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	self := t.selfTimes()
	werr := t.writeSpans(f, self, map[string]any{
		"machine": stamp, "workload": w.name, "seed": seed,
		"untraced": plainE2E, "traced": tracedE2E, "per_layer": out,
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, werr
	}
	selfMS := map[string]float64{}
	for name, ns := range self {
		selfMS[name] = float64(ns) / 1e6
	}
	b, _ := json.Marshal(selfMS)
	fmt.Printf("self_ms %s\n", b)
	fmt.Printf("trace_file %s\n", path)
	return out, nil
}

// layerMetrics assembles the per-layer metrics from the untraced pass
// (runner busy time, GC share), the traced pass's hooks and the
// allocation probe.
func layerMetrics(plain, traced *pass, h *passHooks, allocsPerTick float64) map[string]float64 {
	t, st := h.t, h.st
	out := map[string]float64{}
	if plain.localWall > 0 {
		out["sweep.worker_busy_ratio"] = float64(plain.busyNS) / (float64(servedWorkers) * float64(plain.localWall))
	}
	out["sweep.expand_us"] = median(h.expandUS.values())
	out["exp.prewarm_ms"] = median(h.prewarmMS.values())
	hits := h.factors.hits - t.shadowLookups.Load()
	out["thermal.factorizations"] = float64(h.factors.misses)
	if hits+h.factors.misses > 0 {
		out["thermal.factor_cache_hit_ratio"] = float64(hits) / float64(hits+h.factors.misses)
	}
	out["exp.job_config_us"] = t.jobConfigT.meanUS()
	out["floorplan.build_us"] = t.floorplanBuild.meanUS()
	if n := t.traceGets.Load(); n > 0 {
		out["workload.trace_cache_hit_ratio"] = float64(t.traceHits.Load()) / float64(n)
	}
	out["thermal.model_build_us"] = t.modelBuild.meanUS()
	out["sim.engine_setup_us"] = t.engineSetup.meanUS()
	out["sim.tick_us"] = t.tick.meanUS()
	out["sim.finish_us"] = t.finish.meanUS()
	out["sim.allocs_per_tick"] = allocsPerTick
	ticks := t.hostTicks.Load()
	out["sim.tick_other_us"] = tickOtherUS(t.tick.ns.Load(), ticks,
		t.policyTick.ns.Load(), t.policyAssign.ns.Load(),
		t.powerCompute.ns.Load(), t.thermalStep.ns.Load(), t.readback.ns.Load(),
		t.metricsRecord.ns.Load(), t.relObserve.ns.Load())
	out["policy.tick_us"] = t.policyTick.meanUS()
	out["policy.assign_us"] = t.policyAssign.meanUS()
	out["policy.rollout_us"] = t.rollout.meanUS()
	if ticks > 0 {
		out["policy.rollout_lane_ticks"] = float64(t.rolloutLaneTicks.Load()) / float64(ticks)
	}
	out["power.compute_us"] = t.powerCompute.meanUS()
	out["thermal.step_us"] = t.thermalStep.meanUS()
	out["thermal.readback_us"] = t.readback.meanUS()
	out["metrics.record_us"] = t.metricsRecord.meanUS()
	out["reliability.observe_us"] = t.relObserve.meanUS()

	out["server.handler_ms_p50.cold"] = median(st.handlerCold.values())
	out["server.handler_ms_p50.cached"] = median(st.handlerCached.values())
	out["client.decode_ms_p50"] = median(st.decodeMS(traced.sp))
	if n := traced.sp.servedRecords.Load(); n > 0 {
		out["server.bytes_per_record"] = float64(st.sweepBytes.Load()) / float64(n)
	}
	out["server.job_wait_ms_p50"] = median(st.jobWait.values())
	out["server.job_run_ms_p50"] = median(st.jobRun.values())
	c := st.counters
	if c.CacheHits+c.CacheMisses > 0 {
		out["server.cache_hit_ratio"] = float64(c.CacheHits) / float64(c.CacheHits+c.CacheMisses)
	}
	out["server.inflight_joins"] = float64(c.InflightJoins)

	sp := traced.sp
	out["session.open_ms"] = median(sp.sessOpen.values())
	out["session.event_ms"] = median(sp.sessEvent.values())
	out["session.frame_us"] = median(sp.frameGap.values())
	if n := sp.sessionFrames.Load(); n > 0 {
		out["session.bytes_per_frame"] = float64(sp.sessionBytes.Load()) / float64(n)
	}
	out["session.replay_frames_per_s"] = median(sp.replayFPS.values())
	out["runtime.gc_cpu_share"] = plain.gcShare
	return out
}

// probeJobs picks the allocation probe's jobs from a workload: the
// first job, the first planning (MPC) job and the first job with
// reliability tracking, whichever exist.
func probeJobs(w benchWorkload, seed int64) []sweep.Job {
	spec := w.setupSpec(seed)
	jobs := spec.Expand()
	picked := []sweep.Job{jobs[0]}
	var mpc, rel bool
	for _, j := range jobs[1:] {
		if !mpc && (j.Policy == "MPC_Thermal" || j.Policy == "MPC_Rel") {
			picked, mpc = append(picked, j), true
		}
		if !rel && j.Reliability && !jobs[0].Reliability {
			picked, rel = append(picked, j), true
		}
	}
	return picked
}

// allocProbe runs the probe jobs one after another with nothing else
// running and returns the heap allocations per Engine.Step.
func allocProbe(w benchWorkload, seed int64) (float64, error) {
	t := newTracer()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	var allocs, ticks uint64
	for _, j := range probeJobs(w, seed) {
		cfg, err := t.jobConfig(j)
		if err != nil {
			return 0, err
		}
		eng, err := sim.NewEngine(cfg)
		if err != nil {
			return 0, err
		}
		metrics.Read(s)
		a0 := s[0].Value.Uint64()
		n := uint64(0)
		for {
			err := eng.Step()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			n++
		}
		metrics.Read(s)
		allocs += s[0].Value.Uint64() - a0
		ticks += n
	}
	if ticks == 0 {
		return 0, nil
	}
	return float64(allocs) / float64(ticks), nil
}
