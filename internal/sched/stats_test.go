package sched

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/workload"
)

// oracleStats is the list-based reference for ComputeStats: one pass
// over the completed jobs in completion order.
func oracleStats(done []QueuedJob, migrations int) Stats {
	st := Stats{Completed: len(done), TotalMigration: migrations}
	if st.Completed == 0 {
		return st
	}
	var resp, serv, slow float64
	for _, j := range done {
		r := j.CompletionS - j.Job.ArrivalS
		resp += r
		serv += j.Job.WorkS
		slow += r / j.Job.WorkS
	}
	n := float64(st.Completed)
	st.MeanResponseS = resp / n
	st.MeanServiceS = serv / n
	st.MeanSlowdown = slow / n
	return st
}

// advanceRecording advances m and appends the jobs the interval
// completed to done in the machine's completion order: core by core,
// and within a core by completion time, ties in queue order.
func advanceRecording(t *testing.T, m *Machine, dt float64, speeds []float64, done []QueuedJob) []QueuedJob {
	t.Helper()
	before := make([][]*QueuedJob, m.numCores)
	for c, q := range m.queues {
		before[c] = append([]*QueuedJob(nil), q...)
	}
	if _, err := m.Advance(dt, speeds); err != nil {
		t.Fatal(err)
	}
	for _, q := range before {
		var fin []*QueuedJob
		for _, j := range q {
			if j.CompletionS >= 0 {
				fin = append(fin, j)
			}
		}
		sort.SliceStable(fin, func(a, b int) bool { return fin[a].CompletionS < fin[b].CompletionS })
		for _, j := range fin {
			done = append(done, *j)
		}
	}
	return done
}

// TestComputeStatsMatchesListOracle pins the streaming completion sums
// against the list-based oracle bit for bit over randomized traces,
// with Save/Load round trips mid-run: into a fresh machine, and back
// into the same machine after it ran ahead (a rewind, as rollout lanes
// do).
func TestComputeStatsMatchesListOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		m, err := NewMachine(n, 0.001*float64(rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		var done []QueuedJob
		id := 0
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				j := workload.Job{ID: id, ArrivalS: m.NowS() - rng.Float64()*0.05, WorkS: 0.005 + rng.Float64()*0.3}
				if err := m.Enqueue(j, rng.Intn(n)); err != nil {
					t.Fatal(err)
				}
				id++
			case op == 4:
				m.Migrate(rng.Intn(n), rng.Intn(n))
			case op == 5:
				m.MoveTail(rng.Intn(n), rng.Intn(n))
			case op == 6:
				// Save, run ahead, then rewind into the same machine.
				var s MachineState
				m.Save(&s)
				mark := len(done)
				for k := rng.Intn(4); k >= 0; k-- {
					done = advanceRecording(t, m, 0.1, randomSpeeds(rng, n), done)
				}
				if err := m.Load(&s); err != nil {
					t.Fatal(err)
				}
				done = done[:mark]
			case op == 7:
				// Transplant into a fresh machine and continue there.
				var s MachineState
				m.Save(&s)
				if len(s.Queued) != m.TotalQueued() {
					t.Fatalf("state holds %d jobs, machine queues %d", len(s.Queued), m.TotalQueued())
				}
				f, err := NewMachine(n, m.migrationCostS)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Load(&s); err != nil {
					t.Fatal(err)
				}
				m = f
			default:
				done = advanceRecording(t, m, 0.02+rng.Float64()*0.2, randomSpeeds(rng, n), done)
			}
			if got, want := m.ComputeStats(), oracleStats(done, m.TotalMigrations()); got != want {
				t.Fatalf("trial %d step %d: streaming stats %+v, oracle %+v", trial, step, got, want)
			}
		}
	}
}

func randomSpeeds(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = []float64{0, 0.85, 0.95, 1}[rng.Intn(4)]
	}
	return s
}
