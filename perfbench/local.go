package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/server"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// servedWorkers is the dtmserved worker-pool size: nproc on the
// reference machine (2 vCPUs), so serving never oversubscribes it.
const servedWorkers = 2

// setupSpec is the spec whose expansion and prewarm make up a
// workload's local set-up: its sweep, or for served-mix the pool's
// first spec (every pool spec shares its scenarios).
func (w benchWorkload) setupSpec(seed int64) sweep.Spec {
	if w.sweep != nil {
		return *w.sweep(seed)
	}
	return servedSpec(seed, 0)
}

// service is one in-process dtmserved behind httptest.
type service struct {
	srv *server.Server
	ts  *httptest.Server
}

// startService starts a server; wrap, when non-nil, decorates its
// handler (the traced run's timing handler).
func startService(cfg server.Config, wrap func(http.Handler) http.Handler) *service {
	srv := server.New(cfg)
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	return &service{srv: srv, ts: httptest.NewServer(h)}
}

func (s *service) stop() {
	s.ts.Close()
	s.srv.Stop()
}

// setUp is the timed set-up before the first job or request: sweep
// expansion plus exp.Prewarm factorizations from a cold factorization
// cache, then server start. It returns the jobs, the running service
// and the elapsed time. With h set (the traced pass) it also times
// expansion and prewarm on their own and wraps the server's handler.
func setUp(w benchWorkload, seed int64, cfg server.Config, h *passHooks) ([]sweep.Job, *service, time.Duration, error) {
	thermal.ResetFactorCache()
	t0 := time.Now()
	spec := w.setupSpec(seed)
	jobs := spec.Expand()
	t1 := time.Now()
	if err := exp.Prewarm(spec); err != nil {
		return nil, nil, 0, err
	}
	t2 := time.Now()
	var wrap func(http.Handler) http.Handler
	if h != nil {
		wrap = h.st.handler
		h.expandUS.addDur(t1.Sub(t0), time.Microsecond)
		h.prewarmMS.addDur(t2.Sub(t1), time.Millisecond)
	}
	svc := startService(cfg, wrap)
	return jobs, svc, time.Since(t0), nil
}

// runnerWrap decorates the runners a local sweep executes (the traced
// run wraps them to time runner calls); nil leaves them as they are.
type runnerWrap func(sweep.RunFunc, sweep.RunGroupFunc) (sweep.RunFunc, sweep.RunGroupFunc)

// sweepResult is one local sweep's outcome.
type sweepResult struct {
	stream []byte // canonical record stream
	ticks  int64
	wall   time.Duration
}

// tickSink sums the simulated ticks of the records passing through.
type tickSink struct{ ticks atomic.Int64 }

func (s *tickSink) Put(r sweep.Record) error { s.ticks.Add(int64(r.Ticks)); return nil }
func (s *tickSink) Close() error             { return nil }

// runLocalSweep executes jobs the way cmd/dtmsweep's sweep mode does —
// fresh runners from exp.NewRunners, same-system jobs grouped through
// exp.GroupKey, one worker per CPU — and returns the canonical stream.
// The factorization cache must already be warm (setUp).
func runLocalSweep(ctx context.Context, jobs []sweep.Job, wrap runnerWrap) (sweepResult, error) {
	var res sweepResult
	run, runGroup := exp.NewRunners(exp.RunnerHooks{})
	if wrap != nil {
		run, runGroup = wrap(run, runGroup)
	}
	var col sweep.Collector
	ticks := &tickSink{}
	opts := sweep.Options{Group: exp.GroupKey, RunGroup: runGroup}
	t0 := time.Now()
	if _, err := sweep.Execute(ctx, jobs, run, opts, &col, ticks); err != nil {
		return res, err
	}
	res.wall = time.Since(t0)
	res.ticks = ticks.ticks.Load()
	stream, err := canonicalStream(jobs, col.Records)
	res.stream = stream
	return res, err
}
