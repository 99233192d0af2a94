package sched

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func job(id int, arrival, work float64) workload.Job {
	return workload.Job{ID: id, ArrivalS: arrival, WorkS: work}
}

// enqueue enqueues j on core and returns the machine's record of it,
// read from the queue tail, so tests can follow the job to completion.
func enqueue(t *testing.T, m *Machine, j workload.Job, core int) *QueuedJob {
	t.Helper()
	if err := m.Enqueue(j, core); err != nil {
		t.Fatal(err)
	}
	q := m.queues[core]
	return q[len(q)-1]
}

func fullSpeed(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

func TestNewMachineValidation(t *testing.T) {
	if _, err := NewMachine(0, 0.001); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := NewMachine(4, -1); err == nil {
		t.Error("negative migration cost accepted")
	}
}

func TestEnqueueAndAdvanceCompletesJob(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	j := enqueue(t, m, job(0, 0, 0.05), 0)
	utils, err := m.Advance(0.1, fullSpeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(utils[0]-0.5) > 1e-9 {
		t.Errorf("core 0 util = %g, want 0.5 (50 ms of work in a 100 ms tick)", utils[0])
	}
	if utils[1] != 0 {
		t.Errorf("idle core util = %g, want 0", utils[1])
	}
	if n := m.ComputeStats().Completed; n != 1 {
		t.Fatalf("%d jobs completed, want 1", n)
	}
	if math.Abs(j.CompletionS-0.05) > 1e-9 {
		t.Errorf("completion at %g, want 0.05", j.CompletionS)
	}
}

func TestAdvanceRespectsSpeed(t *testing.T) {
	m, _ := NewMachine(1, 0)
	j := enqueue(t, m, job(0, 0, 0.085), 0)
	// At 0.85 speed, 0.085 s of work takes exactly 0.1 s of wall clock.
	utils, _ := m.Advance(0.1, []float64{0.85})
	if math.Abs(utils[0]-1.0) > 1e-9 {
		t.Errorf("util = %g, want 1.0", utils[0])
	}
	if m.ComputeStats().Completed != 1 || j.CompletionS < 0 {
		t.Error("job should have just completed")
	}
}

func TestAdvanceZeroSpeedStalls(t *testing.T) {
	m, _ := NewMachine(1, 0)
	j := enqueue(t, m, job(0, 0, 0.05), 0)
	utils, _ := m.Advance(0.1, []float64{0})
	if utils[0] != 0 {
		t.Errorf("stalled core util = %g, want 0", utils[0])
	}
	if m.ComputeStats().Completed != 0 || j.CompletionS >= 0 {
		t.Error("stalled core completed a job")
	}
	if m.Running(0) == nil || m.Running(0).RemainingS != 0.05 {
		t.Error("stalled job lost progress state")
	}
	// A stalled core with work is NOT idle.
	if m.IdleDurationS(0) != 0 {
		t.Errorf("stalled core reports idle duration %g", m.IdleDurationS(0))
	}
}

func TestMultipleJobsProcessorSharing(t *testing.T) {
	// Equal jobs share the pipeline and finish together: 3 x 0.03 s of
	// work at unit speed completes at t = 0.09.
	m, _ := NewMachine(1, 0)
	done := []*QueuedJob{
		enqueue(t, m, job(0, 0, 0.03), 0),
		enqueue(t, m, job(1, 0, 0.03), 0),
		enqueue(t, m, job(2, 0, 0.03), 0),
	}
	m.Advance(0.1, fullSpeed(1))
	if n := m.ComputeStats().Completed; n != 3 {
		t.Fatalf("%d completed, want 3", n)
	}
	for _, j := range done {
		if math.Abs(j.CompletionS-0.09) > 1e-9 {
			t.Errorf("job %d completed at %g, want 0.09 (shared pipeline)", j.Job.ID, j.CompletionS)
		}
	}
}

func TestProcessorSharingShortJobNotStuck(t *testing.T) {
	// A short job sharing with a long one completes in 2x its service
	// time instead of waiting for the long job (the T1's fine-grained
	// multithreading behaviour).
	m, _ := NewMachine(1, 0)
	longJob := enqueue(t, m, job(0, 0, 1.0), 0) // long
	short := enqueue(t, m, job(1, 0, 0.05), 0)  // short
	m.Advance(0.2, fullSpeed(1))
	if n := m.ComputeStats().Completed; n != 1 || short.CompletionS < 0 || longJob.CompletionS >= 0 {
		t.Fatalf("expected the short job to finish first, got %d completed (short at %g, long at %g)",
			n, short.CompletionS, longJob.CompletionS)
	}
	if math.Abs(short.CompletionS-0.1) > 1e-9 {
		t.Errorf("short job completed at %g, want 0.1 (sharing with one other)", short.CompletionS)
	}
	long := m.Running(0)
	if long == nil || math.Abs(long.RemainingS-(1.0-0.05-0.1)) > 1e-9 {
		t.Errorf("long job remaining = %v, want 0.85", long)
	}
}

func TestMigrateToIdleCore(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	m.Enqueue(job(0, 0, 0.05), 0)
	if err := m.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Running(0) != nil {
		t.Error("source core still has the job")
	}
	j := m.Running(1)
	if j == nil {
		t.Fatal("destination core has no job")
	}
	if math.Abs(j.RemainingS-0.051) > 1e-12 {
		t.Errorf("remaining = %g, want 0.051 (work + 1 ms migration cost)", j.RemainingS)
	}
	if j.Migrations != 1 || m.TotalMigrations() != 1 {
		t.Error("migration count not recorded")
	}
}

func TestMigrateSwapsWhenBothBusy(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	m.Enqueue(job(0, 0, 0.05), 0)
	m.Enqueue(job(1, 0, 0.08), 1)
	if err := m.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if m.Running(0).Job.ID != 1 || m.Running(1).Job.ID != 0 {
		t.Error("jobs were not swapped")
	}
	if m.TotalMigrations() != 2 {
		t.Errorf("swap should count 2 migrations, got %d", m.TotalMigrations())
	}
}

func TestMigrateEdgeCases(t *testing.T) {
	m, _ := NewMachine(2, 0.001)
	if err := m.Migrate(0, 1); err != nil {
		t.Errorf("migrating from empty queue should be a no-op, got %v", err)
	}
	if err := m.Migrate(0, 0); err != nil {
		t.Errorf("self-migration should be a no-op, got %v", err)
	}
	if err := m.Migrate(-1, 0); err == nil {
		t.Error("out-of-range core accepted")
	}
	if m.TotalMigrations() != 0 {
		t.Error("no-op migrations were counted")
	}
}

func TestIdleTracking(t *testing.T) {
	m, _ := NewMachine(1, 0)
	// Idle from t=0.
	m.Advance(0.1, fullSpeed(1))
	if got := m.IdleDurationS(0); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("idle duration = %g, want 0.1", got)
	}
	m.Enqueue(job(0, 0.1, 0.25), 0)
	if m.IdleDurationS(0) != 0 {
		t.Error("busy core reports nonzero idle duration")
	}
	m.Advance(0.1, fullSpeed(1)) // 0.15 left
	m.Advance(0.1, fullSpeed(1)) // 0.05 left
	m.Advance(0.1, fullSpeed(1)) // finishes mid-tick
	if m.IdleDurationS(0) <= 0 {
		t.Error("core should be idle again after finishing")
	}
}

func TestComputeStats(t *testing.T) {
	m, _ := NewMachine(1, 0)
	m.Enqueue(job(0, 0, 0.1), 0)
	m.Enqueue(job(1, 0, 0.1), 0)
	m.Advance(0.2, fullSpeed(1))
	st := m.ComputeStats()
	if st.Completed != 2 {
		t.Fatalf("completed = %d, want 2", st.Completed)
	}
	// Under processor sharing both 0.1 s jobs finish together at 0.2.
	if math.Abs(st.MeanResponseS-0.2) > 1e-9 {
		t.Errorf("mean response = %g, want 0.2", st.MeanResponseS)
	}
	if math.Abs(st.MeanServiceS-0.1) > 1e-9 {
		t.Errorf("mean service = %g, want 0.1", st.MeanServiceS)
	}
	if math.Abs(st.MeanSlowdown-2.0) > 1e-9 {
		t.Errorf("mean slowdown = %g, want 2.0", st.MeanSlowdown)
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	m, _ := NewMachine(1, 0)
	st := m.ComputeStats()
	if st.Completed != 0 || st.MeanResponseS != 0 {
		t.Error("empty machine should have zero stats")
	}
}

func TestAdvanceValidation(t *testing.T) {
	m, _ := NewMachine(2, 0)
	if _, err := m.Advance(0, fullSpeed(2)); err == nil {
		t.Error("zero dt accepted")
	}
	if _, err := m.Advance(0.1, fullSpeed(1)); err == nil {
		t.Error("wrong speed vector length accepted")
	}
	if _, err := m.Advance(0.1, []float64{-1, 0}); err == nil {
		t.Error("negative speed accepted")
	}
}

func TestEnqueueValidation(t *testing.T) {
	m, _ := NewMachine(2, 0)
	if err := m.Enqueue(job(0, 0, 1), 5); err == nil {
		t.Error("out-of-range core accepted")
	}
}

func TestMemActivity(t *testing.T) {
	m, _ := NewMachine(2, 0)
	j := job(0, 0, 1)
	j.MemActivity = 0.7
	m.Enqueue(j, 1)
	ma := m.MemActivity()
	if ma[0] != 0 || ma[1] != 0.7 {
		t.Errorf("MemActivity = %v, want [0 0.7]", ma)
	}
}

func TestQueueLens(t *testing.T) {
	m, _ := NewMachine(3, 0)
	m.Enqueue(job(0, 0, 1), 0)
	m.Enqueue(job(1, 0, 1), 0)
	m.Enqueue(job(2, 0, 1), 2)
	lens := m.QueueLens()
	if lens[0] != 2 || lens[1] != 0 || lens[2] != 1 {
		t.Errorf("QueueLens = %v", lens)
	}
	if m.TotalQueued() != 3 {
		t.Errorf("TotalQueued = %d, want 3", m.TotalQueued())
	}
}

// Conservation: work in equals work completed plus work remaining,
// regardless of the migration pattern.
func TestWorkConservation(t *testing.T) {
	m, _ := NewMachine(4, 0) // zero migration cost for exact accounting
	totalIn := 0.0
	var jobs []*QueuedJob
	for i := 0; i < 20; i++ {
		w := 0.01 * float64(i+1)
		jobs = append(jobs, enqueue(t, m, job(i, 0, w), i%4))
		totalIn += w
	}
	for tick := 0; tick < 10; tick++ {
		m.Migrate(tick%4, (tick+1)%4)
		m.Advance(0.05, fullSpeed(4))
	}
	done := 0.0
	for _, j := range jobs {
		if j.CompletionS >= 0 {
			done += j.Job.WorkS
		}
	}
	remaining := 0.0
	for c := 0; c < 4; c++ {
		for i := 0; i < m.QueueLen(c); i++ {
			// Walk queues through Running + internal state via QueueLen.
		}
	}
	// Account remaining via executed time: total busy time equals work done.
	_ = remaining
	totalOut := done
	for c := 0; c < 4; c++ {
		for _, j := range m.queues[c] {
			totalOut += j.Job.WorkS - j.RemainingS
		}
		for _, j := range m.queues[c] {
			totalOut += j.RemainingS
		}
	}
	if math.Abs(totalOut-totalIn) > 1e-9 {
		t.Errorf("work not conserved: in %g, out %g", totalIn, totalOut)
	}
}
