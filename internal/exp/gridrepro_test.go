package exp

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/sweep"
	"repro/internal/thermal"
)

// TestGridStreamIndependentOfFactorization pins that a grid-mode sweep
// streams the same canonical records whichever factorization it runs
// on: the minimum-degree ordering of a grid model must not depend on
// anything but the matrix, or each fresh factorization rounds
// differently and DVFS_Rel, which thresholds accumulated damage,
// amplifies the difference into different records.
func TestGridStreamIndependentOfFactorization(t *testing.T) {
	spec := sweep.Spec{
		Scenarios:   []sweep.Scenario{{Exp: floorplan.EXP1, GridRows: 16, GridCols: 16}},
		Policies:    []string{"DVFS_Rel"},
		Benchmarks:  []string{"Web-med"},
		DurationsS:  []float64{30},
		Reliability: true,
	}
	t.Cleanup(thermal.ResetFactorCache)
	stream := func() []byte {
		thermal.ResetFactorCache()
		jobs := spec.Expand()
		if err := Prewarm(spec); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink := sweep.NewOrderedSink(sweep.StripElapsed(sweep.NewJSONLSink(&buf)), jobs)
		run, _ := NewRunners(RunnerHooks{})
		if _, err := sweep.Execute(context.Background(), jobs, run, sweep.Options{Workers: 1}, sink); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := stream()
	if len(first) == 0 {
		t.Fatal("grid sweep streamed no records")
	}
	if second := stream(); !bytes.Equal(first, second) {
		t.Fatalf("grid-mode canonical stream changed across factorizations\nfirst:  %s\nsecond: %s", first, second)
	}
}
