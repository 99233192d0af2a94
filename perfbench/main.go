// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed measuring time, checks every output against the
// correctness gate, and prints its metrics as one JSON object on the
// last line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sweep-fig3 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries every end-to-end metric; with
// --trace 1 the run is the traced run, which measures an untraced pass
// and a traced pass back to back and reports the per-layer metrics,
// including the tracing overhead. The spans of the traced pass are
// written to .bench_build/trace-<workload>-<seed>.json.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 9

func main() {
	name := flag.String("workload", "", "workload: sweep-fig3, sweep-grid or served-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	w, err := workloadByName(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	ctx := context.Background()

	stamp := machineStamp()
	b, _ := json.Marshal(stamp)
	fmt.Printf("machine %s\n", b)

	g := &gate{}
	budget := time.Duration(*seconds) * time.Second
	var out map[string]float64
	var counts map[string]int
	if *trace == 1 {
		out, err = tracedRun(ctx, w, *seed, budget, g, stamp)
	} else {
		var p *pass
		p, err = runPass(ctx, w, *seed, budget, g, nil)
		if err == nil {
			out, counts, err = p.endToEnd(true)
		}
	}
	if err != nil {
		fatal(err)
	}
	if counts != nil {
		b, _ := json.Marshal(counts)
		fmt.Printf("samples %s\n", b)
	}
	g.report()
	attempted, failed := g.counts()
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(defs))
	for _, d := range defs {
		ms[d.name] = metric{Value: out[d.name], Unit: d.unit}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations, %d failed (fail_ratio %.4g)\n",
		w.name, *seed, attempted, failed, float64(failed)/float64(max(attempted, 1)))
	res, _ := json.Marshal(map[string]any{
		"correct":   failed == 0 && attempted > 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   ms,
	})
	fmt.Println(string(res))
	if failed > 0 || attempted == 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// pass is one measured pass over a workload: set-up, local sweeps, the
// served phase, and the served = local verification.
type pass struct {
	w    benchWorkload
	seed int64

	setup     samples // s
	ticksPerS samples
	heapPeak  float64 // MB
	sp        *servedPhase

	// localStream is the local sweep's canonical stream (the sweeps) or
	// the canonical streams of pool specs 0..pinnedPoolSpecs-1
	// (served-mix).
	localStream []byte

	// Runner-call accounting of the local sweeps, for
	// sweep.worker_busy_ratio.
	busyNS    int64
	localWall time.Duration
	gcShare   float64
}

// passHooks are the traced run's attachment points; nil for an
// untraced pass.
type passHooks struct {
	t  *tracer
	st *servedTracer
	// expandUS and prewarmMS receive the set-up's phases.
	expandUS, prewarmMS samples
	// factors are the factorization-cache counters from the last
	// set-up's reset to the end of the served phase.
	factors factorStats
}

// runPass measures one pass. With hooks it is the traced pass: local
// jobs run through the tracer's per-job runner and the server gets the
// timing handler and runner.
func runPass(ctx context.Context, w benchWorkload, seed int64, budget time.Duration, g *gate, h *passHooks) (*pass, error) {
	p := &pass{w: w, seed: seed}

	cfg := server.Config{Workers: servedWorkers}
	if h != nil {
		cfg.Runner = h.st.runner(h.t.runJob)
	}
	var (
		jobs []sweep.Job
		svc  *service
	)
	for r := 0; r < setupReps; r++ {
		if svc != nil {
			svc.stop()
		}
		var d time.Duration
		var err error
		jobs, svc, d, err = setUp(w, seed, cfg, h)
		if err != nil {
			return nil, err
		}
		p.setup.add(d.Seconds())
	}
	defer func() {
		if svc != nil {
			svc.stop()
		}
	}()

	if h != nil && w.sweep != nil {
		// The traced sweeps must reproduce an untraced sweep on the same
		// factorization: that is what shows the wrappers did not
		// perturb the simulation.
		ref, err := runLocalSweep(ctx, jobs, nil)
		if err != nil {
			return nil, err
		}
		p.localStream = ref.stream
		g.pinned(w.name, seed, digest(ref.stream))
	}

	heap := startHeapSampler()
	gc0 := readCPU()

	p.sp = newServedPhase(seed, svc.ts.URL, g, h != nil)
	if h != nil {
		h.st.seq = p.sp.seq
	}
	var c0 serverCounters
	if h != nil {
		var err error
		if c0, err = fetchCounters(svc.ts.URL); err != nil {
			return nil, err
		}
	}
	if w.sweep == nil {
		p.sp.run(ctx, budget)
	}
	// The sweeps alternate one local sweep with a served slice in
	// proportion to localShare, so both phases sample the machine
	// across the whole run rather than each in its own window. When the
	// budget left could not hold another sweep and its slice, the last
	// slice takes all of it, so the run ends on time.
	start := time.Now()
	for w.sweep != nil {
		var res sweepResult
		var err error
		if h != nil {
			res, err = runTracedSweep(ctx, jobs, h.t)
		} else {
			res, err = runLocalSweep(ctx, jobs, p.busyWrap())
		}
		if err != nil {
			return nil, err
		}
		p.localWall += res.wall
		p.ticksPerS.add(float64(res.ticks) / res.wall.Seconds())
		if p.localStream == nil {
			p.localStream = res.stream
			g.pinned(w.name, seed, digest(res.stream))
		} else {
			g.same(fmt.Sprintf("%s sweep vs the pass's first sweep", w.name), res.stream, p.localStream)
		}
		slice := time.Duration(float64(res.wall) * (1 - w.localShare) / w.localShare)
		left := budget - time.Since(start)
		if left < res.wall+slice {
			p.sp.run(ctx, max(left, slice/4))
			break
		}
		p.sp.run(ctx, slice)
	}
	if h != nil {
		c1, err := fetchCounters(svc.ts.URL)
		if err != nil {
			return nil, err
		}
		h.st.counters = serverCounters{
			CacheHits:     c1.CacheHits - c0.CacheHits,
			CacheMisses:   c1.CacheMisses - c0.CacheMisses,
			InflightJoins: c1.InflightJoins - c0.InflightJoins,
		}
	}
	p.gcShare = readCPU().gcShareSince(gc0)
	p.heapPeak = heap.stop()
	svc.stop()
	svc = nil
	if h != nil {
		h.factors = readFactorStats()
	}

	if err := p.verifyServed(ctx, g, w.sweep == nil); err != nil {
		return nil, err
	}
	return p, nil
}

// busyWrap times every runner call of a local sweep.
func (p *pass) busyWrap() runnerWrap {
	var mu sync.Mutex
	add := func(d time.Duration) { mu.Lock(); p.busyNS += int64(d); mu.Unlock() }
	return func(run sweep.RunFunc, group sweep.RunGroupFunc) (sweep.RunFunc, sweep.RunGroupFunc) {
		return func(ctx context.Context, j sweep.Job) (sweep.Record, error) {
				t0 := time.Now()
				defer func() { add(time.Since(t0)) }()
				return run(ctx, j)
			}, func(ctx context.Context, js []sweep.Job) ([]sweep.Record, error) {
				t0 := time.Now()
				defer func() { add(time.Since(t0)) }()
				return group(ctx, js)
			}
	}
}

// verifySpecsPerSweep bounds how many served specs one verification
// sweep covers; each verification sweep is one sim_ticks_per_s sample
// on served-mix.
const verifySpecsPerSweep = 64

// verifyServed runs every served spec — and pool specs
// 0..pinnedPoolSpecs-1, which the served-mix digest pins — locally
// through cmd/dtmsweep's runners and checks each served stream against
// its local canonical stream. On served-mix this is the local phase:
// with timed set, each verification sweep is a sim_ticks_per_s sample
// and counts towards sweep.worker_busy_ratio.
func (p *pass) verifyServed(ctx context.Context, g *gate, timed bool) error {
	specs := p.sp.servedSpecs()
	seen := map[int]bool{}
	for _, s := range specs {
		seen[s] = true
	}
	for s := 0; s < pinnedPoolSpecs; s++ {
		if !seen[s] {
			specs = append(specs, s)
		}
	}
	sort.Ints(specs)
	var pinned []byte
	// Equal-sized verification sweeps, so their ticks/s samples compare.
	n := (len(specs) + verifySpecsPerSweep - 1) / verifySpecsPerSweep
	size := (len(specs) + n - 1) / n
	for lo := 0; lo < len(specs); lo += size {
		chunk := specs[lo:min(lo+size, len(specs))]
		var jobs []sweep.Job
		bounds := []int{0}
		for _, s := range chunk {
			spec := servedSpec(p.seed, s)
			jobs = append(jobs, spec.Expand()...)
			bounds = append(bounds, len(jobs))
		}
		var wrap runnerWrap
		if timed {
			wrap = p.busyWrap()
		}
		res, err := runLocalSweep(ctx, jobs, wrap)
		if err != nil {
			return err
		}
		if timed {
			p.localWall += res.wall
			p.ticksPerS.add(float64(res.ticks) / res.wall.Seconds())
		}
		lines := splitLines(res.stream)
		if len(lines) != len(jobs) {
			return fmt.Errorf("verification sweep streamed %d records for %d jobs", len(lines), len(jobs))
		}
		for k, s := range chunk {
			local := bytes.Join(lines[bounds[k]:bounds[k+1]], nil)
			if s < pinnedPoolSpecs {
				pinned = append(pinned, local...)
			}
			if served, ok := p.sp.streamOf(s); ok {
				g.same(fmt.Sprintf("served spec %d vs local", s), served, local)
			}
		}
	}
	if p.w.sweep == nil {
		p.localStream = pinned
		g.pinned(p.w.name, p.seed, digest(pinned))
	}
	return nil
}

// endToEnd computes the pass's end-to-end metrics and sample counts.
// When strict, a percentile without enough samples beyond it is an
// error: the run was sized too small to report it. The traced run
// compares passes non-strictly, for its overhead figures only.
func (p *pass) endToEnd(strict bool) (map[string]float64, map[string]int, error) {
	out := map[string]float64{}
	counts := map[string]int{}
	sp := p.sp
	put := func(name string, s *samples, pct float64) error {
		v := s.values()
		counts[name] = len(v)
		if pct == 50 {
			if len(v) == 0 && strict {
				return fmt.Errorf("%s: no samples", name)
			}
			out[name] = median(v)
			return nil
		}
		x, ok := percentile(v, pct)
		if !ok && strict {
			return fmt.Errorf("%s: %d samples leave fewer than %d beyond the percentile", name, len(v), minBeyond)
		}
		out[name] = x
		return nil
	}
	for _, e := range []struct {
		name string
		s    *samples
		pct  float64
	}{
		{"setup_s", &p.setup, 50},
		{"sim_ticks_per_s", &p.ticksPerS, 50},
		{"cold_req_ms_p50", &sp.coldReq, 50},
		{"cold_req_ms_p90", &sp.coldReq, 90},
		{"cold_ttfr_ms_p50", &sp.coldTTFR, 50},
		{"cached_req_ms_p50", &sp.cachedReq, 50},
		{"cached_req_ms_p99", &sp.cachedReq, 99},
	} {
		if err := put(e.name, e.s, e.pct); err != nil {
			return nil, nil, err
		}
	}
	if sp.sessions.Load() > 0 {
		out["session_frames_per_s"] = float64(sp.sessionFrames.Load()) / (float64(sp.sessionStreamNS.Load()) / 1e9)
	} else if strict {
		return nil, nil, fmt.Errorf("session_frames_per_s: no sessions")
	}
	counts["session_frames_per_s"] = int(sp.sessions.Load())
	out["req_per_s"] = float64(sp.items.Load()) / sp.wall.Seconds()
	counts["req_per_s"] = int(sp.items.Load())
	out["heap_peak_mb"] = p.heapPeak
	return out, counts, nil
}

// heapSampler records the peak of the Go heap's live-and-unswept
// object bytes.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		peak := uint64(0)
		tk := time.NewTicker(5 * time.Millisecond)
		defer tk.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-h.stopc:
				h.done <- float64(peak) / (1 << 20)
				return
			case <-tk.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// cpuStats is a runtime/metrics CPU accounting snapshot.
type cpuStats struct{ gc, total float64 }

func readCPU() cpuStats {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return cpuStats{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcShareSince is the GC's share of all CPU time since c0.
func (c cpuStats) gcShareSince(c0 cpuStats) float64 {
	if c.total <= c0.total {
		return 0
	}
	return (c.gc - c0.gc) / (c.total - c0.total)
}

// traceFile is where the traced run writes its spans.
func traceFile(w benchWorkload, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", w.name, seed))
}

// factorStats is a thermal.FactorCacheStats snapshot.
type factorStats struct{ hits, misses int64 }

func readFactorStats() factorStats {
	_, h, m := thermal.FactorCacheStats()
	return factorStats{hits: h, misses: m}
}
