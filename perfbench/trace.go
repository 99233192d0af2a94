package main

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/power"
	"repro/internal/reliability"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// span is one traced interval. Spans stay in memory during the traced
// run and are written out once at its end.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	ID     string `json:"id"`     // shared by every span of one job or request
}

// acc accumulates the total duration and count of one layer's calls.
type acc struct{ ns, n atomic.Int64 }

func (a *acc) add(d time.Duration) { a.ns.Add(int64(d)); a.n.Add(1) }

// meanUS is the mean call cost in microseconds (0 with no calls).
func (a *acc) meanUS() float64 {
	n := a.n.Load()
	if n == 0 {
		return 0
	}
	return float64(a.ns.Load()) / float64(n) / 1e3
}

// tracer is the traced run's span store and layer accumulators.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	jobConfigT, floorplanBuild, modelBuild, engineSetup acc
	tick, finish                                        acc
	policyTick, policyAssign, rollout                   acc
	rolloutLaneTicks                                    atomic.Int64
	powerCompute, thermalStep, readback                 acc
	metricsRecord, relObserve                           acc
	hostTicks                                           atomic.Int64
	shadowLookups                                       atomic.Int64

	tracesMu             sync.Mutex
	traces               *workload.TraceCache
	traceKeys            map[string]bool
	traceGets, traceHits atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), traces: workload.NewTraceCache(), traceKeys: map[string]bool{}}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, id string) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// writeSpans writes every span and the per-name self times as one
// JSON document.
func (t *tracer) writeSpans(w io.Writer, self map[string]int64, extra map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := map[string]any{"spans": t.spans, "self_ns": self}
	for k, v := range extra {
		doc[k] = v
	}
	return json.NewEncoder(w).Encode(doc)
}

// selfTimes returns the self time of every span name so far.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children. Open spans count as zero.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]int64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// tickOtherUS is the per-tick time of Engine.Step not attributed to
// the policy or to the shadow-measured layers: the scheduler, DPM,
// energy accounting and observers. All arguments are totals in
// nanoseconds over ticks host ticks.
func tickOtherUS(tickNS int64, ticks int64, attributedNS ...int64) float64 {
	if ticks == 0 {
		return 0
	}
	rest := tickNS
	for _, a := range attributedNS {
		rest -= a
	}
	return float64(rest) / float64(ticks) / 1e3
}

// jobConfig is exp.JobConfig over the tracer's own trace cache,
// classifying each trace lookup as a hit or a miss. The cache is
// replaced before it could evict, so a key seen before is a real hit.
func (t *tracer) jobConfig(j sweep.Job) (sim.Config, error) {
	t.tracesMu.Lock()
	defer t.tracesMu.Unlock()
	if b, err := workload.ByName(j.Bench); err == nil {
		key := traceKey(b.Name, j)
		t.traceGets.Add(1)
		if t.traceKeys[key] {
			t.traceHits.Add(1)
		} else {
			if len(t.traceKeys) >= 500 {
				t.traces, t.traceKeys = workload.NewTraceCache(), map[string]bool{}
			}
			t.traceKeys[key] = true
		}
	}
	return exp.JobConfig(t.traces, j)
}

// traceKey identifies the trace exp.JobConfig requests for j: the
// workload.GenConfig fields, with the core count standing in as the
// experiment's (declarative stacks fall back to their scenario ID).
func traceKey(bench string, j sweep.Job) string {
	cores := any(j.Scenario.ID())
	if j.Scenario.Stack == nil {
		cores = j.Scenario.Exp.NumCores()
	}
	b, _ := json.Marshal([]any{bench, cores, j.DurationS, j.Seed})
	return string(b)
}

// runJob is the traced per-job runner: exp.JobConfig -> sim.NewEngine
// -> Step ... -> Finish, with the policy wrapped by a timing decorator
// and the per-tick layers re-measured on shadow copies between steps.
// Its records are those of the untraced runners.
func (t *tracer) runJob(ctx context.Context, j sweep.Job) (sweep.Record, error) {
	id := j.Key()
	root := t.begin("job", -1, id)
	defer t.end(root)

	s := t.begin("exp.job_config", root, id)
	cfg, err := t.jobConfig(j)
	t.jobConfigT.add(t.end(s))
	if err != nil {
		return sweep.Record{}, err
	}

	s = t.begin("floorplan.build", root, id)
	stack, err := buildStack(j.Scenario)
	t.floorplanBuild.add(t.end(s))
	if err != nil {
		return sweep.Record{}, err
	}
	s = t.begin("thermal.model_build", root, id)
	model, err := buildModel(stack, j.Scenario)
	t.modelBuild.add(t.end(s))
	if err != nil {
		return sweep.Record{}, err
	}

	cfg.Policy = wrapPolicy(cfg.Policy, t)
	sh := &shadow{}
	cfg.Observer = sh
	s = t.begin("sim.engine_setup", root, id)
	eng, err := sim.NewEngine(cfg)
	t.engineSetup.add(t.end(s))
	if err != nil {
		return sweep.Record{}, err
	}
	if err := sh.init(eng, model, j.Reliability); err != nil {
		return sweep.Record{}, err
	}
	t.shadowLookups.Add(1)

	s = t.begin("sim.ticks", root, id)
	for {
		if err := ctx.Err(); err != nil {
			t.end(s)
			return sweep.Record{}, err
		}
		t0 := time.Now()
		err := eng.Step()
		d := time.Since(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.end(s)
			return sweep.Record{}, err
		}
		t.tick.add(d)
		t.hostTicks.Add(1)
		if err := sh.step(eng, t); err != nil {
			t.end(s)
			return sweep.Record{}, err
		}
	}
	t.end(s)

	s = t.begin("sim.finish", root, id)
	res, err := eng.Finish()
	t.finish.add(t.end(s))
	if err != nil {
		return sweep.Record{}, err
	}
	return sweep.NewRecord(j, res, 0), nil
}

// buildStack builds the scenario's floorplan the way exp.JobConfig
// does.
func buildStack(sc sweep.Scenario) (*floorplan.Stack, error) {
	if sc.Stack != nil {
		spec, err := sc.Stack.Resolve()
		if err != nil {
			return nil, err
		}
		return spec.Build()
	}
	jr := sc.JointResistivityMKW
	if jr == 0 {
		jr = 0.23
	}
	return floorplan.BuildWithResistivity(sc.Exp, jr)
}

// buildModel builds the scenario's thermal model the way the engine
// does for every job.
func buildModel(stack *floorplan.Stack, sc sweep.Scenario) (*thermal.Model, error) {
	if sc.GridRows > 0 && sc.GridCols > 0 {
		return thermal.NewGridModel(stack, thermal.DefaultParams(), sc.GridRows, sc.GridCols)
	}
	return thermal.NewBlockModel(stack, thermal.DefaultParams())
}

// shadow re-runs the per-tick layers on copies of one job's inputs so
// each layer's per-call cost can be timed without touching the
// engine: power from the engine's tick state, a shadow integrator on
// the job's own cached factorization, readback and sensors, and fresh
// metrics and reliability accumulators fed the observed temperatures.
type shadow struct {
	stack     *floorplan.Stack
	model     *thermal.Model
	tr        *thermal.Transient
	sensors   *thermal.Sensors
	collector *metrics.Collector
	tracker   *reliability.Tracker
	pm        power.Model
	ambientC  float64

	ts                  sim.TickState
	coreIn              []power.CoreInput
	blockPower, node    []float64
	blockT, coreT, read []float64
	obsBlock, obsCore   []float64
}

// ObserveTick implements sim.Observer.
func (s *shadow) ObserveTick(int) {}

// ObserveTemps implements sim.Observer: it keeps a copy of the tick's
// temperatures for the shadow metrics and reliability calls.
func (s *shadow) ObserveTemps(block, core []float64) {
	s.obsBlock = append(s.obsBlock[:0], block...)
	s.obsCore = append(s.obsCore[:0], core...)
}

func (s *shadow) init(eng *sim.Engine, model *thermal.Model, rel bool) error {
	var err error
	s.stack = eng.Stack()
	s.model = model
	s.pm = power.DefaultModel()
	s.ambientC = thermal.DefaultParams().AmbientC
	if s.tr, err = model.NewTransientWith(eng.TickS(), nil, thermal.SolverCached); err != nil {
		return err
	}
	if s.sensors, err = thermal.NewSensors(thermal.SensorConfig{}); err != nil {
		return err
	}
	if s.collector, err = metrics.NewCollector(s.stack, metrics.CollectorConfig{HotSpotC: 85, CycleWindow: 100}); err != nil {
		return err
	}
	if rel {
		if s.tracker, err = reliability.NewTracker(s.stack.NumBlocks(), eng.TickS()); err != nil {
			return err
		}
	}
	n := s.stack.NumCores()
	s.coreIn = make([]power.CoreInput, n)
	s.blockPower = make([]float64, s.stack.NumBlocks())
	s.node = make([]float64, model.NumNodes)
	s.blockT = make([]float64, s.stack.NumBlocks())
	s.coreT = make([]float64, n)
	s.read = make([]float64, n)
	return nil
}

// step times one call of each per-tick layer on the shadow state.
func (s *shadow) step(eng *sim.Engine, t *tracer) error {
	eng.TickStateInto(&s.ts)
	for c := range s.coreIn {
		st := power.StateIdle
		switch {
		case s.ts.Sleeping[c]:
			st = power.StateSleep
		case s.ts.Gated[c]:
			st = power.StateGated
		case s.ts.QueueLens[c] > 0 || s.ts.Utils[c] > 0:
			st = power.StateActive
		}
		s.coreIn[c] = power.CoreInput{State: st, Level: s.ts.Levels[c], Util: s.ts.Utils[c]}
	}
	t0 := time.Now()
	err := s.pm.ComputeInto(s.blockPower, s.stack, power.ChipInput{Cores: s.coreIn, BlockTempsC: s.obsBlock, AmbientC: s.ambientC})
	t.powerCompute.add(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = s.tr.StepInto(s.node, s.blockPower)
	t.thermalStep.add(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = s.model.BlockTempsInto(s.blockT, s.node)
	if err == nil {
		err = s.model.CoreTempsInto(s.coreT, s.node)
	}
	s.sensors.ReadInto(s.read, s.coreT)
	t.readback.add(time.Since(t0))
	if err != nil {
		return err
	}
	t0 = time.Now()
	err = s.collector.Record(s.obsBlock, s.obsCore)
	t.metricsRecord.add(time.Since(t0))
	if err != nil {
		return err
	}
	if s.tracker != nil {
		t0 = time.Now()
		err = s.tracker.Observe(s.obsBlock)
		t.relObserve.add(time.Since(t0))
	}
	return err
}

// timedPolicy is the timing decorator around a job's policy. It
// forwards every call and keeps the policy.Forker contract; planners
// get timedPlanner, which also wraps the attached rollout.
type timedPolicy struct {
	inner policy.Policy
	t     *tracer
}

type timedPlanner struct {
	timedPolicy
	pl policy.Planner
}

// The decorators must keep the interfaces the engine looks for.
var (
	_ policy.Forker  = (*timedPolicy)(nil)
	_ policy.Planner = (*timedPlanner)(nil)
	_ policy.Forker  = (*timedPlanner)(nil)
)

// timedRollout times the engine's rollout evaluator.
type timedRollout struct {
	inner policy.Rollout
	t     *tracer
}

func wrapPolicy(p policy.Policy, t *tracer) policy.Policy {
	if pl, ok := p.(policy.Planner); ok {
		return &timedPlanner{timedPolicy: timedPolicy{inner: p, t: t}, pl: pl}
	}
	return &timedPolicy{inner: p, t: t}
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) AssignCore(v *policy.View, job workload.Job) int {
	t0 := time.Now()
	c := p.inner.AssignCore(v, job)
	p.t.policyAssign.add(time.Since(t0))
	return c
}

func (p *timedPolicy) Tick(v *policy.View) policy.TickDecision {
	t0 := time.Now()
	d := p.inner.Tick(v)
	p.t.policyTick.add(time.Since(t0))
	return d
}

// Fork implements policy.Forker: the clone stays decorated. It returns
// nil exactly when the inner policy cannot fork.
func (p *timedPolicy) Fork() policy.Policy {
	f, ok := policy.TryFork(p.inner)
	if !ok {
		return nil
	}
	return wrapPolicy(f, p.t)
}

// AttachRollout implements policy.Planner.
func (p *timedPlanner) AttachRollout(r policy.Rollout) {
	p.pl.AttachRollout(&timedRollout{inner: r, t: p.t})
}

func (r *timedRollout) Evaluate(actions []policy.Action, horizonTicks int, scores []policy.RolloutScore) error {
	t0 := time.Now()
	err := r.inner.Evaluate(actions, horizonTicks, scores)
	r.t.rollout.add(time.Since(t0))
	r.t.rolloutLaneTicks.Add(int64(len(actions) * horizonTicks))
	return err
}
