package main

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/floorplan"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// reactivePolicies are the four policies without rollouts that the
// grid sweep and the served pool run: no MPC, so a policy/MPC change
// should leave their timings alone.
var reactivePolicies = []string{"Default", "DVFS_TT", "Adapt3D", "DVFS_Rel"}

// servedBenches are the benchmarks of the served request pool.
var servedBenches = []string{"Web-med", "Web&DB"}

// benchWorkload is one named benchmark input. Every workload runs two
// phases so that every end-to-end metric is measured on it: a local
// sweep (sweep.Spec.Expand -> exp.Prewarm -> sweep.Execute, as
// cmd/dtmsweep drives it) and a served phase (closed-loop clients
// against an in-process dtmserved). What differs is where the time
// goes: sweep-fig3 and sweep-grid spend most of the run in their big
// local sweep, served-mix in serving, and its local phase re-runs the
// served specs locally, which is also the served = local gate.
type benchWorkload struct {
	name string
	// sweep returns the local-phase spec for a seed; nil for
	// served-mix, whose local phase is the set of specs it served.
	sweep func(seed int64) *sweep.Spec
	// localShare is the share of the run given to local sweeps; the
	// rest goes to the served phase, in slices between the sweeps.
	localShare float64
}

var workloads = []benchWorkload{
	{name: "sweep-fig3", sweep: fig3Spec, localShare: 0.4},
	{name: "sweep-grid", sweep: gridSpec, localShare: 0.4},
	{name: "served-mix", sweep: nil, localShare: 0},
}

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// fig3Spec is the paper's Fig. 3 matrix without DPM: the full 14-policy
// roster x EXP-1, EXP-3 x Web-med, Web&DB at 600 s, 2 replicates —
// 112 jobs, 672k ticks.
func fig3Spec(seed int64) *sweep.Spec {
	return &sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP3}),
		Policies:   append([]string(nil), exp.PolicyOrder...),
		Benchmarks: []string{"Web-med", "Web&DB"},
		Replicates: 2,
		Seed:       seed,
		Solvers:    []thermal.SolverKind{thermal.SolverCached},
		DurationsS: []float64{600},
	}
}

// gridSpec is grid thermal mode at 16x16 cells per layer on EXP-1 and
// EXP-3: the reactive policies x Web-med at 600 s with reliability
// tracking, 2 replicates — 16 jobs.
func gridSpec(seed int64) *sweep.Spec {
	scs := sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP3})
	for i := range scs {
		scs[i].GridRows, scs[i].GridCols = 16, 16
	}
	return &sweep.Spec{
		Scenarios:   scs,
		Policies:    append([]string(nil), reactivePolicies...),
		Benchmarks:  []string{"Web-med"},
		Replicates:  2,
		Seed:        seed,
		Solvers:     []thermal.SolverKind{thermal.SolverCached},
		DurationsS:  []float64{600},
		Reliability: true,
	}
}

// servedSpec is spec i of a seed's served pool: EXP-1/EXP-3 x the
// reactive policies x the served benchmarks at 30 s, 16 jobs. Specs of
// one pool differ only in their seed.
func servedSpec(seed int64, i int) sweep.Spec {
	return sweep.Spec{
		Scenarios:  sweep.ScenariosFor([]floorplan.Experiment{floorplan.EXP1, floorplan.EXP3}),
		Policies:   append([]string(nil), reactivePolicies...),
		Benchmarks: append([]string(nil), servedBenches...),
		Seed:       poolSeed(seed, i),
		Solvers:    []thermal.SolverKind{thermal.SolverCached},
		DurationsS: []float64{30},
	}
}

// poolSeed derives the seed of pool entry i; entries of different
// workload seeds never collide for i < 2^20.
func poolSeed(seed int64, i int) int64 { return seed<<20 + int64(i) + 1 }
