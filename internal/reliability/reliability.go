package reliability

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// Boltzmann constant in eV/K.
const boltzmannEV = 8.617333262e-5

// CyclingModel is the Coffin-Manson thermal fatigue model: the number of
// cycles to failure scales as (ΔT_ref/ΔT)^Exponent. The paper cites
// JEDEC data showing failures become 16x more frequent when ΔT grows
// from 10 to 20 °C — an exponent of 4, the default here.
type CyclingModel struct {
	Exponent  float64
	RefDeltaC float64 // amplitude at which damage is defined as 1 per cycle
}

// DefaultCycling returns the JEDEC-calibrated model.
func DefaultCycling() CyclingModel { return CyclingModel{Exponent: 4, RefDeltaC: 20} }

// Validate reports nonsensical parameters.
func (m CyclingModel) Validate() error {
	if m.Exponent <= 0 || m.RefDeltaC <= 0 {
		return fmt.Errorf("reliability: cycling model needs positive exponent and reference, got %+v", m)
	}
	return nil
}

// CycleDamage returns the fatigue damage of one full cycle of the given
// amplitude, normalized so a RefDeltaC cycle contributes 1.0.
func (m CyclingModel) CycleDamage(deltaC float64) float64 {
	if deltaC <= 0 {
		return 0
	}
	return math.Pow(deltaC/m.RefDeltaC, m.Exponent)
}

// Damage accumulates the census of full cycles (rainflow output) plus
// half cycles at half weight, per the usual Miner's-rule accounting.
func (m CyclingModel) Damage(fullCycles, halfCycles []float64) float64 {
	d := 0.0
	for _, a := range fullCycles {
		d += m.CycleDamage(a)
	}
	for _, a := range halfCycles {
		d += m.CycleDamage(a) / 2
	}
	return d
}

// EMModel is Black's-equation electromigration acceleration: the failure
// rate scales as exp(-Ea/kT) relative to a reference temperature.
type EMModel struct {
	ActivationEV float64 // JEDEC: ~0.7 eV for Al/Cu interconnect EM
	RefC         float64 // temperature at which the rate factor is 1
}

// DefaultEM returns the JEDEC-typical electromigration model referenced
// to the paper's 85 °C threshold.
func DefaultEM() EMModel { return EMModel{ActivationEV: 0.7, RefC: 85} }

// Validate reports nonsensical parameters.
func (m EMModel) Validate() error {
	if m.ActivationEV <= 0 {
		return fmt.Errorf("reliability: EM activation energy must be positive, got %g", m.ActivationEV)
	}
	if m.RefC <= -273.15 {
		return fmt.Errorf("reliability: EM reference temperature %g below absolute zero", m.RefC)
	}
	return nil
}

// RateFactor returns the instantaneous wear rate at tempC relative to
// the reference temperature (1.0 at RefC, >1 hotter, <1 cooler).
func (m EMModel) RateFactor(tempC float64) float64 {
	ea, invRef := m.rateConsts()
	return rateFactor(ea, invRef, tempC)
}

// rateConsts returns the temperature-independent parts of RateFactor:
// Ea/k_B and 1/T_ref, so per-tick callers compute them once per sample
// vector instead of once per signal.
func (m EMModel) rateConsts() (eaOverK, invRef float64) {
	return m.ActivationEV / boltzmannEV, 1 / (m.RefC + 273.15)
}

// rateFactor is RateFactor with its constants resolved by rateConsts.
func rateFactor(eaOverK, invRef, tempC float64) float64 {
	return math.Exp(eaOverK * (invRef - 1/(tempC+273.15)))
}

// Assessor accumulates per-core reliability stress over a simulation:
// a rainflow counter per core for cycling fatigue and a time-averaged
// electromigration acceleration factor.
type Assessor struct {
	Cycling CyclingModel
	EM      EMModel

	flows   []*metrics.Rainflow
	emSum   []float64
	samples int
	tickS   float64
}

// NewAssessor builds an assessor for numCores cores sampled every tickS
// seconds.
func NewAssessor(numCores int, tickS float64) (*Assessor, error) {
	if numCores <= 0 {
		return nil, fmt.Errorf("reliability: need cores, got %d", numCores)
	}
	if tickS <= 0 {
		return nil, fmt.Errorf("reliability: tick must be positive, got %g", tickS)
	}
	a := &Assessor{
		Cycling: DefaultCycling(),
		EM:      DefaultEM(),
		flows:   make([]*metrics.Rainflow, numCores),
		emSum:   make([]float64, numCores),
		tickS:   tickS,
	}
	for i := range a.flows {
		a.flows[i] = metrics.NewRainflow()
	}
	return a, nil
}

// Record adds one sampling interval of per-core temperatures.
func (a *Assessor) Record(coreTempsC []float64) error {
	if len(coreTempsC) != len(a.flows) {
		return fmt.Errorf("reliability: got %d temps for %d cores", len(coreTempsC), len(a.flows))
	}
	for c, t := range coreTempsC {
		a.flows[c].Push(t)
		a.emSum[c] += a.EM.RateFactor(t)
	}
	a.samples++
	return nil
}

// CoreReport is the per-core reliability stress summary.
type CoreReport struct {
	Core int
	// CyclingDamage is the accumulated Coffin-Manson damage (reference
	// cycles equivalent) over the observed interval.
	CyclingDamage float64
	// EMAcceleration is the time-averaged electromigration wear rate
	// relative to the reference temperature.
	EMAcceleration float64
	// FullCycles is the rainflow census size.
	FullCycles int
}

// Report returns per-core summaries, index == CoreID.
func (a *Assessor) Report() []CoreReport {
	out := make([]CoreReport, len(a.flows))
	for c := range a.flows {
		full := a.flows[c].FullCycles()
		half := a.flows[c].ResidualHalfCycles()
		em := 0.0
		if a.samples > 0 {
			em = a.emSum[c] / float64(a.samples)
		}
		out[c] = CoreReport{
			Core:           c,
			CyclingDamage:  a.Cycling.Damage(full, half),
			EMAcceleration: em,
			FullCycles:     len(full),
		}
	}
	return out
}

// WorstCore returns the report of the core with the highest combined
// stress (cycling damage rank plus EM rank); ties favour the lower id.
func (a *Assessor) WorstCore() CoreReport {
	reports := a.Report()
	worst := reports[0]
	for _, r := range reports[1:] {
		if r.CyclingDamage+r.EMAcceleration > worst.CyclingDamage+worst.EMAcceleration {
			worst = r
		}
	}
	return worst
}

// RelativeMTTF compares two assessors (e.g. two policies on the same
// trace): it returns the ratio of the baseline's worst-core combined
// stress to this assessor's — values above 1 mean this run is gentler on
// the silicon. Combined stress is EM acceleration plus cycling damage
// normalized per hour of simulated time.
func (a *Assessor) RelativeMTTF(baseline *Assessor) float64 {
	sb := baseline.combinedStress()
	sa := a.combinedStress()
	if sa <= 0 {
		return math.Inf(1)
	}
	return sb / sa
}

func (a *Assessor) combinedStress() float64 {
	w := a.WorstCore()
	hours := float64(a.samples) * a.tickS / 3600
	if hours <= 0 {
		return w.EMAcceleration
	}
	return w.EMAcceleration + w.CyclingDamage/hours
}
