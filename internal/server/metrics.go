package server

import (
	"math"
	"sync/atomic"
	"time"
)

// Metrics is the JSON document GET /metrics serves: a consistent-enough
// snapshot of the service's counters and gauges. Totals are monotonic
// since process start; gauges (queue depth, active jobs) are
// instantaneous.
type Metrics struct {
	UptimeS        float64 `json:"uptime_s"`
	Workers        int     `json:"workers"`
	RequestsTotal  int64   `json:"requests_total"`
	RequestsActive int64   `json:"requests_active"`

	// Job accounting. Submitted counts every non-skipped job of every
	// accepted sweep request, whatever the outcome; completed, failed,
	// and canceled count only jobs that actually ran (cache hits and
	// in-flight joins never reach a worker).
	JobsSubmitted int64 `json:"jobs_submitted_total"`
	JobsCompleted int64 `json:"jobs_completed_total"`
	JobsFailed    int64 `json:"jobs_failed_total"`
	JobsCanceled  int64 `json:"jobs_canceled_total"`
	QueueDepth    int64 `json:"queue_depth"`
	ActiveJobs    int64 `json:"active_jobs"`

	// Dedup accounting: hits were served straight from the result
	// cache, joins attached to an identical job already running,
	// misses became new simulation runs.
	CacheHits     int64 `json:"cache_hits_total"`
	CacheMisses   int64 `json:"cache_misses_total"`
	InflightJoins int64 `json:"inflight_joins_total"`
	CacheEntries  int   `json:"cache_entries"`
	CacheCapacity int   `json:"cache_capacity"`

	// Cluster peer-fill accounting (all zero on a single-node server).
	// PeerFills counts cache misses resolved by fetching the record
	// from the key's rendezvous owner; BackendRetries counts transient-
	// failure retries of those peer fetches; ReroutedJobs counts peer
	// fetches that gave up on the owner and ran the job locally.
	PeerFills      int64 `json:"peer_fills_total"`
	BackendRetries int64 `json:"backend_retries_total"`
	ReroutedJobs   int64 `json:"rerouted_jobs_total"`

	// SimTicks is the total simulated ticks executed by this process:
	// the ground truth for "did that request actually simulate
	// anything" — a fully cache-served request leaves it untouched. A
	// rate is the difference of two scrapes over their uptime_s
	// difference; a lifetime average would go stale after any idle
	// period.
	SimTicks int64 `json:"sim_ticks_total"`

	// Shared sparse-factorization cache (thermal.FactorCacheStats).
	// Unlike every other field these are process-wide: all servers and
	// local simulations in the process share one cache. Entries is a
	// gauge; hits and factorizations are totals.
	FactorCacheEntries int   `json:"factor_cache_entries"`
	FactorCacheHits    int64 `json:"factor_cache_hits_total"`
	Factorizations     int64 `json:"factorizations_total"`

	// Interactive-session accounting. Open and EnginesLive are gauges:
	// resident sessions and how many of them still hold a live engine (a
	// finished, killed, or evicted session frees its engine, so after a
	// drain EnginesLive returns to zero). Opened, Events, Replays, and
	// Evicted are monotonic totals; Replays counts full-log replays and
	// checkpoint seeks together.
	SessionsOpen       int   `json:"sessions_open"`
	SessionEnginesLive int64 `json:"session_engines_live"`
	SessionsOpened     int64 `json:"sessions_opened_total"`
	SessionEvents      int64 `json:"session_events_total"`
	SessionReplays     int64 `json:"session_replays_total"`
	SessionsEvicted    int64 `json:"sessions_evicted_total"`

	// Lifetime accounting over reliability-enabled jobs that completed
	// on this process (cache hits excluded, like the job counters):
	// the number of such jobs, the sum of their total per-block cycling
	// damage, and the worst single-block cycling damage any of them
	// observed. A fleet scheduler can watch the max to spot a scenario
	// that is chewing through its thermal budget.
	ReliabilityJobs     int64   `json:"reliability_jobs_total"`
	CycleDamageTotal    float64 `json:"cycle_damage_total"`
	WorstBlockDamageMax float64 `json:"worst_block_cycle_damage_max"`
}

// counters holds the hot-path counters as atomics so workers and
// request handlers never contend on a lock to account their progress;
// the tick observer in particular fires once per simulated tick
// (~17 µs apart per worker).
type counters struct {
	start           time.Time
	requestsTotal   atomic.Int64
	requestsActive  atomic.Int64
	jobsSubmitted   atomic.Int64
	jobsCompleted   atomic.Int64
	jobsFailed      atomic.Int64
	jobsCanceled    atomic.Int64
	queueDepth      atomic.Int64
	activeJobs      atomic.Int64
	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	inflightJoins   atomic.Int64
	peerFills       atomic.Int64
	backendRetries  atomic.Int64
	reroutedJobs    atomic.Int64
	simTicks        atomic.Int64
	reliabilityJobs atomic.Int64
	damageTotal     atomicFloat
	worstDamageMax  atomicFloat
}

// atomicFloat is a float64 with lock-free Add/Max, for the damage
// accumulators workers update as reliability-enabled jobs finish.
type atomicFloat struct{ bits atomic.Uint64 }

// Add folds v into the value with a CAS loop.
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Max raises the value to v if v is larger.
func (f *atomicFloat) Max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Load returns the current value.
func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// snapshot folds the counters into the wire document. Cache gauges are
// filled in by the caller, which holds the server state lock.
func (c *counters) snapshot(workers int) Metrics {
	return Metrics{
		UptimeS:        time.Since(c.start).Seconds(),
		Workers:        workers,
		RequestsTotal:  c.requestsTotal.Load(),
		RequestsActive: c.requestsActive.Load(),
		JobsSubmitted:  c.jobsSubmitted.Load(),
		JobsCompleted:  c.jobsCompleted.Load(),
		JobsFailed:     c.jobsFailed.Load(),
		JobsCanceled:   c.jobsCanceled.Load(),
		QueueDepth:     c.queueDepth.Load(),
		ActiveJobs:     c.activeJobs.Load(),
		CacheHits:      c.cacheHits.Load(),
		CacheMisses:    c.cacheMisses.Load(),
		InflightJoins:  c.inflightJoins.Load(),
		PeerFills:      c.peerFills.Load(),
		BackendRetries: c.backendRetries.Load(),
		ReroutedJobs:   c.reroutedJobs.Load(),
		SimTicks:       c.simTicks.Load(),

		ReliabilityJobs:     c.reliabilityJobs.Load(),
		CycleDamageTotal:    c.damageTotal.Load(),
		WorstBlockDamageMax: c.worstDamageMax.Load(),
	}
}
