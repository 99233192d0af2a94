package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/sweep"
)

// servedTracer holds the traced served phase's server-side wrappers: a
// timing http.Handler around server.Handler() with a counting
// ResponseWriter, and a timing sweep.RunFunc injected as
// server.Config.Runner.
type servedTracer struct {
	t   *tracer
	seq []item

	handlerCold, handlerCached samples  // ms
	handlerMS                  sync.Map // sequence index -> handler ms
	sweepBytes                 atomic.Int64

	// jobEntry maps a job key to the earliest handler entry of a
	// request waiting for it; the runner wrapper turns it into the
	// job's queue wait.
	jobEntry        sync.Map
	jobWait, jobRun samples // ms

	// counters are the /metrics deltas over the served phase.
	counters serverCounters
}

// countingWriter counts the bytes of a response. It forwards Flush, so
// streamed records still leave one at a time, and exposes the wrapped
// writer to http.ResponseController.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handler wraps the server's handler. Sweep requests are timed from
// entry to return, byte-counted, and their job keys stamped with the
// entry time; other requests pass through untouched.
func (st *servedTracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			next.ServeHTTP(w, r)
			return
		}
		entry := time.Now()
		id, idErr := strconv.Atoi(r.Header.Get(reqIDHeader))
		span := st.t.begin("server.handler", -1, "req:"+r.Header.Get(reqIDHeader))
		body, err := io.ReadAll(r.Body)
		if err == nil {
			var req client.Request
			if json.Unmarshal(body, &req) == nil {
				if jobs, err := req.Jobs(); err == nil {
					for _, j := range jobs {
						st.jobEntry.LoadOrStore(j.Key(), entry)
					}
				}
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		cw := &countingWriter{ResponseWriter: w}
		next.ServeHTTP(cw, r)
		d := st.t.end(span)
		st.sweepBytes.Add(cw.n)
		if idErr != nil || id < 0 || id >= len(st.seq) {
			return
		}
		ms := float64(d) / float64(time.Millisecond)
		st.handlerMS.Store(id, ms)
		if st.seq[id].cold {
			st.handlerCold.add(ms)
		} else {
			st.handlerCached.add(ms)
		}
	})
}

// runner wraps the job runner the server executes: queue wait from the
// first waiting handler's entry to runner start, and run time.
func (st *servedTracer) runner(inner sweep.RunFunc) sweep.RunFunc {
	return func(ctx context.Context, j sweep.Job) (sweep.Record, error) {
		start := time.Now()
		if v, ok := st.jobEntry.LoadAndDelete(j.Key()); ok {
			st.jobWait.addDur(start.Sub(v.(time.Time)), time.Millisecond)
		}
		rec, err := inner(ctx, j)
		st.jobRun.addDur(time.Since(start), time.Millisecond)
		return rec, err
	}
}

// decodeMS is client-observed request time minus handler time, per
// sweep request both sides saw.
func (st *servedTracer) decodeMS(p *servedPhase) []float64 {
	var out []float64
	p.reqClientMS.Range(func(k, v any) bool {
		if h, ok := st.handlerMS.Load(k); ok {
			out = append(out, v.(float64)-h.(float64))
		}
		return true
	})
	return out
}

// serverCounters is the subset of /metrics the traced run reads.
type serverCounters struct {
	CacheHits     int64 `json:"cache_hits_total"`
	CacheMisses   int64 `json:"cache_misses_total"`
	InflightJoins int64 `json:"inflight_joins_total"`
}

func fetchCounters(base string) (serverCounters, error) {
	var c serverCounters
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&c)
	return c, err
}
