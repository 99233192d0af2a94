package exp

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

// goldenCell pins every numeric field of a matrix cell.
type goldenCell struct {
	policy       string
	hotSpotPct   float64
	gradientPct  float64
	cyclePct     float64
	normPerf     float64
	delayPct     float64
	avgPowerW    float64
	energyJ      float64
	maxTempC     float64
	avgCoreTempC float64
	maxVerticalC float64
	migrations   int
}

// goldenEXP1 captures Run on a tiny deterministic sweep (EXP-1, Web-high,
// DPM, 30 s, seed 7) as produced by the sparse cached solver, which is
// itself cross-validated against a dense LU reference to 1e-8 (see
// thermal.TestSteadyStateSparseMatchesDense). Any solver or simulator
// change that shifts paper-table numbers beyond floating-point noise
// fails here.
var goldenEXP1 = []goldenCell{
	{"Default", 0, 0, 0, 1, 0, 31.81092881299991, 954.3278643900023, 64.2430244620002, 60.31140248878117, 8.243879636835473, 9},
	{"Adapt3D", 0, 0, 0, 0.8459485473539304, 18.210499105168047, 31.10633972222985, 933.1901916669004, 64.15167739492618, 59.96368121833346, 8.219598852091593, 0},
	{"DVFS_FLP", 0, 0, 0, 0.9076743342083273, 10.171673067323091, 28.511348984365313, 855.3404695309638, 62.960189736271744, 58.63560271443376, 7.088760451307579, 8},
}

func goldenConfig() MatrixConfig {
	return MatrixConfig{
		Exps:       []floorplan.Experiment{floorplan.EXP1},
		Benchmarks: []string{"Web-high"},
		Policies:   []string{"Default", "Adapt3D", "DVFS_FLP"},
		DurationS:  30,
		Seed:       7,
		UseDPM:     true,
	}
}

func checkGolden(t *testing.T, m *Matrix, relTol float64) {
	t.Helper()
	near := func(field string, got, want float64) {
		t.Helper()
		if d := math.Abs(got - want); d > relTol*(1+math.Abs(want)) {
			t.Errorf("%s: got %.15g want %.15g (|Δ|=%.3e)", field, got, want, d)
		}
	}
	for pi, g := range goldenEXP1 {
		c := m.Cells[pi][0]
		if c.Policy != g.policy {
			t.Fatalf("cell %d policy %q, want %q", pi, c.Policy, g.policy)
		}
		near(g.policy+".HotSpotPct", c.HotSpotPct, g.hotSpotPct)
		near(g.policy+".GradientPct", c.GradientPct, g.gradientPct)
		near(g.policy+".CyclePct", c.CyclePct, g.cyclePct)
		near(g.policy+".NormPerf", c.NormPerf, g.normPerf)
		near(g.policy+".DelayPct", c.DelayPct, g.delayPct)
		near(g.policy+".AvgPowerW", c.AvgPowerW, g.avgPowerW)
		near(g.policy+".EnergyJ", c.EnergyJ, g.energyJ)
		near(g.policy+".MaxTempC", c.MaxTempC, g.maxTempC)
		near(g.policy+".AvgCoreTempC", c.AvgCoreTempC, g.avgCoreTempC)
		near(g.policy+".MaxVerticalC", c.MaxVerticalC, g.maxVerticalC)
		if c.Migrations != g.migrations {
			t.Errorf("%s.Migrations: got %d want %d", g.policy, c.Migrations, g.migrations)
		}
	}
}

// TestRunGoldenEXP1 pins the normalized matrix cells of a tiny
// deterministic sweep so solver refactors provably do not shift the
// regenerated paper tables.
func TestRunGoldenEXP1(t *testing.T) {
	m, err := Run(goldenConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, m, 1e-9)
}
