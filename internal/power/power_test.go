package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floorplan"
)

// compute is ComputeInto into a fresh vector.
func (m *Model) compute(stack *floorplan.Stack, in ChipInput) ([]float64, error) {
	out := make([]float64, stack.NumBlocks())
	if err := m.ComputeInto(out, stack, in); err != nil {
		return nil, err
	}
	return out, nil
}

// tempFactor is g(T) for one temperature, through the curve the power
// loop evaluates.
func (m LeakageModel) tempFactor(tempC float64) float64 {
	c := m.curve()
	return c.at(tempC)
}

// blockLeakage is the leakage power in W of a block of the given area
// at the given temperature and relative supply voltage.
func (m LeakageModel) blockLeakage(areaMM2, tempC, voltRel float64) float64 {
	if areaMM2 <= 0 {
		return 0
	}
	return m.BaseDensityWPerMM2 * areaMM2 * m.tempFactor(tempC) * voltRel * voltRel
}

func TestDefaultDVFSMatchesPaper(t *testing.T) {
	d := DefaultDVFS()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Levels() != 3 {
		t.Fatalf("paper assumes 3 V/f levels, got %d", d.Levels())
	}
	want := []float64{1.0, 0.95, 0.85}
	for i, f := range want {
		if d.FreqScale(VfLevel(i)) != f {
			t.Errorf("level %d freq = %g, want %g", i, d.FreqScale(VfLevel(i)), f)
		}
	}
}

func TestDVFSPowerScaleIsFV2(t *testing.T) {
	d := DefaultDVFS()
	for l := 0; l < d.Levels(); l++ {
		want := d.Freq[l] * d.Volt[l] * d.Volt[l]
		if got := d.PowerScale(VfLevel(l)); math.Abs(got-want) > 1e-12 {
			t.Errorf("level %d power scale = %g, want f·V² = %g", l, got, want)
		}
	}
	if d.PowerScale(0) != 1 {
		t.Error("default level must have unit power scale")
	}
}

func TestDVFSClamp(t *testing.T) {
	d := DefaultDVFS()
	if d.Clamp(-3) != 0 {
		t.Error("negative level should clamp to 0")
	}
	if d.Clamp(99) != VfLevel(d.Levels()-1) {
		t.Error("oversized level should clamp to slowest")
	}
}

func TestDVFSLowestLevelFor(t *testing.T) {
	d := DefaultDVFS()
	cases := []struct {
		util float64
		want VfLevel
	}{
		{0.99, 0}, // needs full speed
		{0.95, 1}, // exactly the middle setting
		{0.90, 1}, // middle covers 0.90
		{0.80, 2}, // slowest covers 0.80
		{0.10, 2}, // deeply idle: slowest
		{-1, 2},   // clamped
		{2, 0},    // clamped to full speed
	}
	for _, c := range cases {
		if got := d.LowestLevelFor(c.util); got != c.want {
			t.Errorf("LowestLevelFor(%g) = %d, want %d", c.util, got, c.want)
		}
	}
}

func TestDVFSValidate(t *testing.T) {
	bad := DVFSTable{Freq: []float64{1.0, 1.0}, Volt: []float64{1, 1}}
	if err := bad.Validate(); err == nil {
		t.Error("non-descending frequencies accepted")
	}
	bad = DVFSTable{Freq: []float64{1.0}, Volt: []float64{}}
	if err := bad.Validate(); err == nil {
		t.Error("mismatched lengths accepted")
	}
	bad = DVFSTable{Freq: []float64{1.5}, Volt: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Error("frequency above 1 accepted")
	}
}

func TestCorePowerStates(t *testing.T) {
	c := DefaultCoreParams()
	d := DefaultDVFS()
	if got := c.Power(d, StateActive, 0, 1); got != 3.0 {
		t.Errorf("fully active core = %g W, paper says 3 W", got)
	}
	if got := c.Power(d, StateSleep, 0, 1); got != 0.02 {
		t.Errorf("sleeping core = %g W, paper says 0.02 W", got)
	}
	if got := c.Power(d, StateGated, 0, 1); got != 0 {
		t.Errorf("gated core switching power = %g W, want 0", got)
	}
	idle := c.Power(d, StateIdle, 0, 0)
	act := c.Power(d, StateActive, 0, 0.5)
	if !(idle < act && act < 3.0) {
		t.Errorf("expected idle (%g) < half-util (%g) < 3", idle, act)
	}
}

func TestCorePowerDVFSReduces(t *testing.T) {
	c := DefaultCoreParams()
	d := DefaultDVFS()
	p0 := c.Power(d, StateActive, 0, 1)
	p1 := c.Power(d, StateActive, 1, 1)
	p2 := c.Power(d, StateActive, 2, 1)
	if !(p2 < p1 && p1 < p0) {
		t.Errorf("power must decrease with level: %g, %g, %g", p0, p1, p2)
	}
	if math.Abs(p2/p0-0.85*0.85*0.85) > 1e-9 {
		t.Errorf("slowest level power ratio %g, want f·V² = %g", p2/p0, 0.85*0.85*0.85)
	}
}

func TestLeakageCalibration(t *testing.T) {
	l := DefaultLeakage()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	// At the 383 K reference the uncapped density must be exactly
	// 0.5 W/mm² ([5]); the default model saturates at the 85 °C value.
	uncapped := l
	uncapped.GCap = 1.0
	if got := uncapped.blockLeakage(1, 383-273.15, 1); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("uncapped leakage density at 383 K = %g, want 0.5", got)
	}
	if got := l.tempFactor(120); math.Abs(got-l.GCap) > 1e-9 {
		t.Errorf("capped TempFactor(120 °C) = %g, want saturation value %g", got, l.GCap)
	}
	// Normalized shape of [25]: ~25% of the reference value at 85 °C and
	// ~10% at 70 °C (exponential subthreshold dependence).
	if g := l.tempFactor(85); math.Abs(g-0.25) > 0.02 {
		t.Errorf("TempFactor(85 °C) = %g, want ~0.25", g)
	}
	if g := l.tempFactor(70); math.Abs(g-0.10) > 0.02 {
		t.Errorf("TempFactor(70 °C) = %g, want ~0.10", g)
	}
}

// TestDefaultGCapCalibration pins the saturation constant to its
// documented calibration point: DefaultLeakage caps the temperature
// factor at g(85 °C) — the paper's emergency threshold, the hottest
// point the managed system is meant to reach. The GCap field comment
// used to claim the 90 °C value (g(90 °C) ≈ 0.353) while the constant
// was 0.25 ≈ g(85 °C); this test keeps doc and constant reconciled.
func TestDefaultGCapCalibration(t *testing.T) {
	l := DefaultLeakage()
	// The uncapped quadratic at the calibration temperature.
	dt := (85 + 273.15) - l.TRefK
	raw := 1 + l.C1*dt + l.C2*dt*dt
	if math.Abs(raw-l.GCap)/raw > 0.015 {
		t.Errorf("GCap = %g, but uncapped g(85 °C) = %.6f: constant no longer matches its calibration point", l.GCap, raw)
	}
	// And it must NOT match the 90 °C value the old comment claimed.
	dt90 := (90 + 273.15) - l.TRefK
	raw90 := 1 + l.C1*dt90 + l.C2*dt90*dt90
	if math.Abs(raw90-l.GCap)/raw90 < 0.015 {
		t.Errorf("GCap = %g unexpectedly matches g(90 °C) = %.6f", l.GCap, raw90)
	}
	// TempFactor saturates exactly at GCap from the cap temperature up.
	if got := l.tempFactor(85.5); math.Abs(got-l.GCap) > 1e-12 {
		t.Errorf("TempFactor just above the cap point = %g, want GCap %g", got, l.GCap)
	}
}

func TestLeakageMonotoneInTemperature(t *testing.T) {
	l := DefaultLeakage()
	f := func(a, b uint8) bool {
		t1 := 20 + float64(a%90)
		t2 := 20 + float64(b%90)
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return l.tempFactor(t1) <= l.tempFactor(t2)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeakageVoltageQuadratic(t *testing.T) {
	l := DefaultLeakage()
	full := l.blockLeakage(10, 70, 1.0)
	reduced := l.blockLeakage(10, 70, 0.85)
	if math.Abs(reduced/full-0.85*0.85) > 1e-9 {
		t.Errorf("voltage scaling ratio %g, want V² = %g", reduced/full, 0.85*0.85)
	}
	if l.blockLeakage(0, 70, 1) != 0 {
		t.Error("zero-area block should leak nothing")
	}
}

func TestLeakageFloor(t *testing.T) {
	l := DefaultLeakage()
	if g := l.tempFactor(-200); g < 0.02-1e-12 {
		t.Errorf("TempFactor floor violated: %g", g)
	}
}

func TestCachePower(t *testing.T) {
	c := DefaultCacheParams()
	if got := c.Power(1); math.Abs(got-1.28) > 1e-12 {
		t.Errorf("fully active L2 = %g W, paper says 1.28 W", got)
	}
	if c.Power(0) >= c.Power(1) {
		t.Error("idle cache should draw less than active")
	}
	if c.Power(-1) != c.Power(0) || c.Power(2) != c.Power(1) {
		t.Error("activity should clamp to [0,1]")
	}
}

func TestCrossbarPowerScalesWithActivity(t *testing.T) {
	x := DefaultCrossbarParams()
	idle := x.Power(0, 0)
	busy := x.Power(1, 1)
	half := x.Power(0.5, 0.5)
	if !(idle < half && half < busy) {
		t.Errorf("crossbar power not monotone: %g, %g, %g", idle, half, busy)
	}
	if math.Abs(busy-x.MaxW) > 1e-12 {
		t.Errorf("peak crossbar = %g, want MaxW=%g", busy, x.MaxW)
	}
}

func chipInput(n int, st CoreState, lvl VfLevel, util float64) ChipInput {
	cores := make([]CoreInput, n)
	for i := range cores {
		cores[i] = CoreInput{State: st, Level: lvl, Util: util, MemActivity: 0.3}
	}
	return ChipInput{Cores: cores, AmbientC: 45}
}

func TestComputeBlockVector(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	pv, err := m.compute(s, chipInput(8, StateActive, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pv) != s.NumBlocks() {
		t.Fatalf("power vector length %d, want %d", len(pv), s.NumBlocks())
	}
	for i, p := range pv {
		if p < 0 {
			t.Errorf("block %d has negative power %g", i, p)
		}
	}
	// A fully busy chip should draw meaningfully more than an idle one.
	idle, _ := m.compute(s, chipInput(8, StateIdle, 0, 0))
	if Total(pv) <= Total(idle) {
		t.Errorf("busy total %g W <= idle total %g W", Total(pv), Total(idle))
	}
}

func TestComputeLeakageFeedback(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	in := chipInput(8, StateActive, 0, 1)
	cold, _ := m.compute(s, in)
	hot := make([]float64, s.NumBlocks())
	for i := range hot {
		hot[i] = 90
	}
	in.BlockTempsC = hot
	hotP, _ := m.compute(s, in)
	if Total(hotP) <= Total(cold) {
		t.Errorf("hot chip should leak more: %g W vs %g W", Total(hotP), Total(cold))
	}
}

func TestComputeLeakageDisabled(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	m.LeakageEnabled = false
	in := chipInput(8, StateSleep, 0, 0)
	pv, _ := m.compute(s, in)
	// With leakage off and all cores asleep, core blocks draw exactly
	// the sleep power.
	for _, c := range s.Cores() {
		if got := pv[s.BlockIndex(c)]; got != 0.02 {
			t.Errorf("sleeping core draws %g W, want 0.02", got)
		}
	}
}

func TestComputeValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	if _, err := m.compute(s, chipInput(3, StateActive, 0, 1)); err == nil {
		t.Error("wrong core count accepted")
	}
	in := chipInput(8, StateActive, 0, 1)
	in.BlockTempsC = []float64{1, 2}
	if _, err := m.compute(s, in); err == nil {
		t.Error("wrong block temp count accepted")
	}
}

func TestModelValidate(t *testing.T) {
	m := DefaultModel()
	m.Core.IdleW = 10
	if err := m.Validate(); err == nil {
		t.Error("idle > active accepted")
	}
	m = DefaultModel()
	m.OtherW = -1
	if err := m.Validate(); err == nil {
		t.Error("negative other power accepted")
	}
}

func TestEnergyMeter(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	m := DefaultModel()
	pv, _ := m.compute(s, chipInput(8, StateActive, 0, 1))
	e := NewEnergyMeter()
	if err := e.Accumulate(s, pv, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := e.Accumulate(s, pv, 0.1); err != nil {
		t.Fatal(err)
	}
	wantJ := Total(pv) * 0.2
	if math.Abs(e.TotalJ()-wantJ) > 1e-9 {
		t.Errorf("TotalJ = %g, want %g", e.TotalJ(), wantJ)
	}
	if math.Abs(e.AveragePowerW()-Total(pv)) > 1e-9 {
		t.Errorf("AveragePowerW = %g, want %g", e.AveragePowerW(), Total(pv))
	}
	// TotalJ is exactly Σ p·dt over the same inputs, in block order.
	exact := 0.0
	for range 2 {
		for _, p := range pv {
			exact += p * 0.1
		}
	}
	if e.TotalJ() != exact {
		t.Errorf("TotalJ = %v, want exactly %v", e.TotalJ(), exact)
	}
	if e.ElapsedS() != 0.2 {
		t.Errorf("elapsed = %g, want 0.2", e.ElapsedS())
	}
}

func TestEnergyMeterValidation(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP1)
	e := NewEnergyMeter()
	if err := e.Accumulate(s, []float64{1}, 0.1); err == nil {
		t.Error("wrong vector length accepted")
	}
	pv := make([]float64, s.NumBlocks())
	if err := e.Accumulate(s, pv, 0); err == nil {
		t.Error("zero dt accepted")
	}
}

func TestCoreStateString(t *testing.T) {
	if StateActive.String() != "active" || StateSleep.String() != "sleep" ||
		StateGated.String() != "gated" || StateIdle.String() != "idle" {
		t.Error("CoreState.String unexpected")
	}
}

// computeIntoRef is the straightforward per-block power computation
// ComputeInto must match bit for bit: every block re-derives the bank
// and crossbar powers, the leakage curve's vertex and cap, and scans
// its layer for cores.
func computeIntoRef(m Model, dst []float64, stack *floorplan.Stack, in ChipInput) error {
	if len(in.Cores) != stack.NumCores() {
		return fmt.Errorf("power: got %d core inputs for %d cores", len(in.Cores), stack.NumCores())
	}
	if in.BlockTempsC != nil && len(in.BlockTempsC) != stack.NumBlocks() {
		return fmt.Errorf("power: got %d block temperatures for %d blocks", len(in.BlockTempsC), stack.NumBlocks())
	}
	if len(dst) != stack.NumBlocks() {
		return fmt.Errorf("power: destination has %d entries for %d blocks", len(dst), stack.NumBlocks())
	}
	activeCores := 0
	memTraffic := 0.0
	for _, c := range in.Cores {
		if c.State == StateActive {
			activeCores++
		}
		memTraffic += c.MemActivity * c.Util
	}
	activeFrac := float64(activeCores) / float64(len(in.Cores))
	memTraffic = math.Min(memTraffic/float64(len(in.Cores))*2, 1)

	for bi, b := range stack.Blocks() {
		var p float64
		var volt float64 = 1
		switch b.Kind {
		case floorplan.KindCore:
			ci := in.Cores[b.CoreID]
			p = m.Core.Power(m.DVFS, ci.State, ci.Level, ci.Util) * b.PowerScale
			volt = m.DVFS.VoltScale(ci.Level)
			if ci.State == StateSleep {
				volt = 0.3
			}
		case floorplan.KindL2:
			p = m.Cache.Power(memTraffic)
		case floorplan.KindCrossbar:
			p = m.Xbar.Power(activeFrac, memTraffic)
		case floorplan.KindOther:
			memLayer := true
			for _, blk := range stack.Layers[b.Layer].Blocks {
				if blk.IsCore() {
					memLayer = false
				}
			}
			if memLayer {
				p = m.MemOtherW
			} else {
				p = m.OtherW
			}
		}
		if m.LeakageEnabled {
			temp := in.AmbientC
			if in.BlockTempsC != nil {
				temp = in.BlockTempsC[bi]
			}
			p += refBlockLeakage(m.Leak, b.Area(), temp, volt) * leakDensityFactor(b.Kind)
		}
		dst[bi] = p
	}
	return nil
}

func refBlockLeakage(m LeakageModel, areaMM2, tempC, voltRel float64) float64 {
	if areaMM2 <= 0 {
		return 0
	}
	return m.BaseDensityWPerMM2 * areaMM2 * refTempFactor(m, tempC) * voltRel * voltRel
}

func refTempFactor(m LeakageModel, tempC float64) float64 {
	dt := (tempC + 273.15) - m.TRefK
	if m.C2 > 0 {
		if vertex := -m.C1 / (2 * m.C2); dt < vertex {
			dt = vertex
		}
	}
	g := 1 + m.C1*dt + m.C2*dt*dt
	if g < 0.02 {
		return 0.02
	}
	cap := m.GCap
	if cap <= 0 {
		cap = 1.0
	}
	if g > cap {
		return cap
	}
	return g
}

// oracleStacks returns EXP-1..6, a heterogeneous big-little spec stack
// (power_scale != 1 on one core tier) and an EXP-1 stack with a
// zero-area, a negative-area and a NaN-area block.
func oracleStacks(t testing.TB) map[string]*floorplan.Stack {
	t.Helper()
	out := map[string]*floorplan.Stack{}
	for _, e := range floorplan.ExtendedExperiments() {
		out[e.String()] = floorplan.MustBuild(e)
	}
	spec, err := floorplan.ParseStackSpec([]byte(`{"name": "big-little", "tsvs_per_interface": 1024, "layers": [` +
		`{"template": "memory"}, {"template": "cores"}, {"template": "cores", "freq_scale": 0.7, "power_scale": 0.45}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if out["big-little"], err = spec.Build(); err != nil {
		t.Fatal(err)
	}
	// ComputeInto does not re-validate the geometry, so a fresh stack's
	// blocks may be shrunk to exercise the no-area branch.
	degenerate := floorplan.MustBuild(floorplan.EXP1)
	blocks := degenerate.Blocks()
	blocks[0].Rect.W = 0
	blocks[1].Rect.W = math.NaN()
	blocks[len(blocks)-1].Rect.W = -1
	out["EXP-1-degenerate"] = degenerate
	return out
}

// TestComputeIntoMatchesReference compares ComputeInto against the
// per-block reference with math.Float64bits over every stack, core
// state, DVFS level (including out-of-range ones), utilization
// (including out-of-range ones), temperatures below the leakage
// vertex, at the cap, far above it and non-finite, and leakage models
// with the vertex clamp, the cap default or leakage itself switched
// off. A NaN result only has to be NaN: where two different NaNs meet
// in one multiplication, which payload survives depends on the operand
// order the compiler picks, not on the source.
func TestComputeIntoMatchesReference(t *testing.T) {
	models := map[string]Model{"default": DefaultModel()}
	noLeak := DefaultModel()
	noLeak.LeakageEnabled = false
	models["no-leakage"] = noLeak
	flat := DefaultModel()
	flat.Leak.C2 = 0
	models["c2-zero"] = flat
	concave := DefaultModel()
	concave.Leak.C2 = -2e-4
	models["c2-negative"] = concave
	uncapped := DefaultModel()
	uncapped.Leak.GCap = 0
	models["gcap-zero"] = uncapped
	// A base density that is not a power of two makes any
	// reassociation of Base·area·g·v·v visible.
	oddBase := DefaultModel()
	oddBase.Leak.BaseDensityWPerMM2 = 0.37
	models["base-0.37"] = oddBase
	fiveLevel := DefaultModel()
	fiveLevel.DVFS = DVFSTable{Freq: []float64{1, 0.9, 0.8, 0.7, 0.6}, Volt: []float64{1, 0.95, 0.9, 0.85, 0.8}}
	models["dvfs-5"] = fiveLevel

	states := []CoreState{StateActive, StateIdle, StateSleep, StateGated, CoreState(9)}
	levels := []VfLevel{-1, 0, 1, 2, 3}
	utils := []float64{-0.5, 0, 0.4, 1, 1.5}
	// 20 °C sits below the default curve's vertex (67.35 °C), 85 °C at
	// the cap, 300 °C far above it.
	temps := []float64{20, 67.35, 85, 300, -300, math.NaN(), math.Inf(1), math.Inf(-1)}

	rng := rand.New(rand.NewSource(7))
	for sname, stack := range oracleStacks(t) {
		nc, nb := stack.NumCores(), stack.NumBlocks()
		got := make([]float64, nb)
		want := make([]float64, nb)
		for mname, m := range models {
			check := func(label string, in ChipInput) {
				t.Helper()
				errGot := m.ComputeInto(got, stack, in)
				errWant := computeIntoRef(m, want, stack, in)
				if (errGot == nil) != (errWant == nil) {
					t.Fatalf("%s/%s/%s: error %v, reference %v", sname, mname, label, errGot, errWant)
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
						t.Fatalf("%s/%s/%s: block %d = %v (%#x), reference %v (%#x)",
							sname, mname, label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
			// Uniform operating points: every (state, level, util) on
			// every core, with nil and per-block temperatures.
			for _, st := range states {
				for _, l := range levels {
					for _, u := range utils {
						in := chipInput(nc, st, l, u)
						check(fmt.Sprintf("uniform %v/%d/%g nil-temps", st, l, u), in)
						for _, tc := range temps {
							in.BlockTempsC = make([]float64, nb)
							for i := range in.BlockTempsC {
								in.BlockTempsC[i] = tc
							}
							check(fmt.Sprintf("uniform %v/%d/%g at %g", st, l, u, tc), in)
						}
					}
				}
			}
			// Mixed operating points and temperature fields.
			for trial := 0; trial < 200; trial++ {
				in := ChipInput{Cores: make([]CoreInput, nc), AmbientC: temps[rng.Intn(len(temps))]}
				for c := range in.Cores {
					in.Cores[c] = CoreInput{
						State:       states[rng.Intn(len(states))],
						Level:       levels[rng.Intn(len(levels))],
						Util:        utils[rng.Intn(len(utils))],
						MemActivity: rng.Float64() * 1.2,
					}
				}
				if trial%4 != 0 {
					in.BlockTempsC = make([]float64, nb)
					for i := range in.BlockTempsC {
						if rng.Intn(3) == 0 {
							in.BlockTempsC[i] = temps[rng.Intn(len(temps))]
						} else {
							in.BlockTempsC[i] = 20 + 100*rng.Float64()
						}
					}
				}
				check(fmt.Sprintf("mixed trial %d", trial), in)
			}
			// Shape errors surface identically.
			check("short cores", chipInput(nc-1, StateActive, 0, 1))
			bad := chipInput(nc, StateActive, 0, 1)
			bad.BlockTempsC = []float64{1}
			check("short temps", bad)
		}
	}
}

// mixedEXP3Input is an EXP-3 operating point with every core state and
// level present and a warm, uneven temperature field.
func mixedEXP3Input(stack *floorplan.Stack) ChipInput {
	in := ChipInput{Cores: make([]CoreInput, stack.NumCores()), AmbientC: 45,
		BlockTempsC: make([]float64, stack.NumBlocks())}
	for c := range in.Cores {
		in.Cores[c] = CoreInput{State: CoreState(c % 4), Level: VfLevel(c % 3), Util: float64(c%5) / 4, MemActivity: 0.3}
	}
	for i := range in.BlockTempsC {
		in.BlockTempsC[i] = 55 + float64(i%7)*5
	}
	return in
}

func TestComputeIntoAllocationFree(t *testing.T) {
	stack := floorplan.MustBuild(floorplan.EXP3)
	m := DefaultModel()
	in := mixedEXP3Input(stack)
	dst := make([]float64, stack.NumBlocks())
	if a := testing.AllocsPerRun(100, func() { _ = m.ComputeInto(dst, stack, in) }); a != 0 {
		t.Fatalf("ComputeInto allocates %v times per call", a)
	}
}

func BenchmarkPowerComputeInto(b *testing.B) {
	stack := floorplan.MustBuild(floorplan.EXP3)
	m := DefaultModel()
	in := mixedEXP3Input(stack)
	dst := make([]float64, stack.NumBlocks())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ComputeInto(dst, stack, in); err != nil {
			b.Fatal(err)
		}
	}
}
