package sim

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/reliability"
	"repro/internal/workload"
)

// checkedRollout scores each epoch's candidates on the engine's
// score-only lanes, then re-scores every candidate on a full public
// Fork of the host and requires the two scores to match bit for bit.
type checkedRollout struct {
	t      *testing.T
	host   *Engine
	inner  policy.Rollout
	scored int
}

func (c *checkedRollout) Evaluate(actions []policy.Action, horizonTicks int, scores []policy.RolloutScore) error {
	if err := c.inner.Evaluate(actions, horizonTicks, scores); err != nil {
		return err
	}
	for i, a := range actions {
		if want := fullForkScore(c.t, c.host, a, horizonTicks); scores[i] != want {
			c.t.Errorf("tick %d candidate %d: lane score %+v, full fork %+v", c.host.tickIdx, i, scores[i], want)
		}
		c.scored++
	}
	return nil
}

// fullForkScore is the reference for a lane score: a full Engine.Fork
// of the host (collector, meters and wear trackers included) advanced
// under a HeldAction, scored with a fresh tracker.
func fullForkScore(t *testing.T, host *Engine, a policy.Action, horizonTicks int) policy.RolloutScore {
	t.Helper()
	f, err := host.Fork()
	if err != nil {
		t.Fatal(err)
	}
	held := policy.NewHeldAction()
	held.Set(a)
	if err := f.SetPolicy(held); err != nil {
		t.Fatal(err)
	}
	tracker, err := reliability.NewTracker(f.stack.NumBlocks(), f.cfg.TickS)
	if err != nil {
		t.Fatal(err)
	}
	startJ := f.energy.TotalJ()
	peak := math.Inf(-1)
	for k := 0; k < horizonTicks && f.TickIndex() < f.TotalTicks(); k++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
		for _, c := range f.coreTemps {
			peak = math.Max(peak, c)
		}
		if err := tracker.Observe(f.blockTemps); err != nil {
			t.Fatal(err)
		}
	}
	worst := 0.0
	for i := range f.blockTemps {
		worst = math.Max(worst, tracker.Damage(i))
	}
	return policy.RolloutScore{PeakTempC: peak, WorstCycleDamage: worst, EnergyJ: f.energy.TotalJ() - startJ}
}

// TestRolloutLanesMatchFullForks pins that score-only lanes, which
// carry no collector, assessor or lifetime tracker, score every MPC
// candidate exactly as a full fork would, on block and grid stacks
// with reliability tracking on and off; and that rollout captures and
// full engines refuse each other.
func TestRolloutLanesMatchFullForks(t *testing.T) {
	for _, pc := range []struct {
		name string
		mk   func() policy.Policy
	}{
		{"MPC_Thermal", func() policy.Policy { return policy.NewMPCThermal() }},
		{"MPC_Rel", func() policy.Policy { return policy.NewMPCRel() }},
	} {
		for _, grid := range []bool{false, true} {
			for _, rel := range []bool{false, true} {
				name := pc.name + map[bool]string{false: "/block", true: "/grid"}[grid] +
					map[bool]string{false: "", true: "+reliability"}[rel]
				t.Run(name, func(t *testing.T) {
					b, err := workload.ByName("Web-high")
					if err != nil {
						t.Fatal(err)
					}
					cfg := Config{
						Exp: floorplan.EXP2, Policy: pc.mk(), Bench: b,
						DurationS: 2.3, Seed: 1,
						TrackLifetime: rel, AssessReliability: rel,
					}
					if grid {
						cfg.GridRows, cfg.GridCols = 6, 6
					}
					e, err := NewEngine(cfg)
					if err != nil {
						t.Fatal(err)
					}
					check := &checkedRollout{t: t, host: e, inner: e.rollout}
					e.cfg.Policy.(policy.Planner).AttachRollout(check)
					stepAll(t, e)
					// Epochs at ticks 0, 10 and 20 (the last one clipped by
					// the end of the run), five candidates each.
					if check.scored != 15 {
						t.Fatalf("checked %d candidate scores, want 15", check.scored)
					}

					var capture, full Snapshot
					e.snapshotInto(&capture, true)
					if err := e.restoreFrom(&capture); err == nil {
						t.Error("a rollout capture restored into a full engine")
					}
					if err := e.Restore(&capture); err == nil {
						t.Error("Restore accepted a rollout capture")
					}
					e.snapshotInto(&full, false)
					if err := e.rollout.lanes[0].eng.restoreFrom(&full); err == nil {
						t.Error("a full snapshot restored into a rollout lane")
					}
				})
			}
		}
	}
}
