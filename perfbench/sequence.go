package main

import (
	"math/rand"

	"repro/internal/floorplan"
	"repro/internal/session"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// Served-mix request sequence parameters.
const (
	// coldOneIn: about one sweep request in coldOneIn asks for a spec
	// for the first time.
	coldOneIn = 11
	// sessionShare is the fixed share of sequence items that are
	// sessions rather than sweep requests.
	sessionShare = 0.04
	// repeatWindow: repeats draw from the most recently introduced
	// specs, so they stay within the server's LRU cache.
	repeatWindow = 32
	// repeatLag keeps a repeat at least this many items after its
	// spec's introduction, so a repeat cannot overtake the cold request
	// it repeats; it may still join that request's jobs in flight.
	repeatLag = 2
	// sessionDurationS is the simulated length of a session's job.
	sessionDurationS = 30
)

// item is one element of the served-mix sequence: a sweep request for
// pool spec `spec` (cold when it is the spec's first occurrence), or a
// session.
type item struct {
	session bool
	spec    int
	cold    bool
	open    session.OpenRequest
	events  []session.Event
}

// genSequence returns the first n items of a seed's served-mix
// sequence. The same seed always yields the same items and the same
// cold/cached classification; clients consume it in order.
func genSequence(seed int64, n int) []item {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	seq := make([]item, 0, n)
	var introduced []int // item index at which each spec first appeared
	for k := 0; k < n; k++ {
		if rng.Float64() < sessionShare {
			seq = append(seq, sessionItem(rng, seed, k))
			continue
		}
		var cands []int
		for s := len(introduced) - 1; s >= 0 && len(cands) < repeatWindow; s-- {
			if introduced[s] <= k-repeatLag {
				cands = append(cands, s)
			}
		}
		if len(cands) == 0 || rng.Intn(coldOneIn) == 0 {
			seq = append(seq, item{spec: len(introduced), cold: true})
			introduced = append(introduced, k)
			continue
		}
		seq = append(seq, item{spec: cands[rng.Intn(len(cands))]})
	}
	return seq
}

// sessionItem draws one session: a 30 s job of the served pool's
// family, opened unpaced at cadence 1, with a seeded fail_tsv,
// set_policy and migrate posted before streaming.
func sessionItem(rng *rand.Rand, seed int64, k int) item {
	e := floorplan.EXP1
	if rng.Intn(2) == 1 {
		e = floorplan.EXP3
	}
	cores := e.NumCores()
	from := rng.Intn(cores)
	to := (from + 1 + rng.Intn(cores-1)) % cores
	job := sweep.Job{
		Scenario:  sweep.Scenario{Exp: e},
		Policy:    reactivePolicies[rng.Intn(len(reactivePolicies))],
		Bench:     servedBenches[rng.Intn(len(servedBenches))],
		Seed:      poolSeed(seed, 1<<19+k),
		Solver:    thermal.SolverCached,
		DurationS: sessionDurationS,
	}
	factors := []float64{1.5, 2, 3}
	return item{
		session: true,
		open:    session.OpenRequest{Job: job, CadenceTicks: 1},
		events: []session.Event{
			{Type: session.EventFailTSV, Factor: factors[rng.Intn(len(factors))]},
			{Type: session.EventSetPolicy, Policy: reactivePolicies[rng.Intn(len(reactivePolicies))]},
			{Type: session.EventMigrate, From: from, To: to},
		},
	}
}
