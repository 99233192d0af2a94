package reliability

import (
	"math"
	"math/rand"
	"testing"
)

// refStream is the Stream without the half-cycle damage cache: Damage
// re-evaluates the Coffin-Manson damage of every residue leg on every
// call, and an overflow retires the oldest leg by evaluating it anew.
// Stream must match it bit for bit.
type refStream struct {
	model        CyclingModel
	pts          [streamCap]float64
	n            int
	last         float64
	dir          int
	started      bool
	closedDamage float64
	cycles       int
}

func (s *refStream) push(t float64) {
	if !s.started {
		s.pts[0] = t
		s.n = 1
		s.last = t
		s.started = true
		return
	}
	switch {
	case t > s.last:
		if s.dir < 0 {
			s.commit(s.last)
		}
		s.dir = 1
	case t < s.last:
		if s.dir > 0 {
			s.commit(s.last)
		}
		s.dir = -1
	}
	s.last = t
	for s.n >= 3 {
		x1, x2, x3 := s.pts[s.n-3], s.pts[s.n-2], s.pts[s.n-1]
		inner := math.Abs(x3 - x2)
		if inner <= math.Abs(x2-x1) && inner <= math.Abs(s.last-x3) {
			s.closedDamage += s.model.CycleDamage(inner)
			s.cycles++
			s.n -= 2
		} else {
			return
		}
	}
}

func (s *refStream) commit(t float64) {
	if s.n == streamCap {
		if d := math.Abs(s.pts[1] - s.pts[0]); d > 0 {
			s.closedDamage += s.model.CycleDamage(d) / 2
		}
		copy(s.pts[:], s.pts[1:])
		s.n--
	}
	s.pts[s.n] = t
	s.n++
}

func (s *refStream) damage() float64 {
	d := s.closedDamage
	prev := math.NaN()
	for i := 0; i < s.n; i++ {
		if i > 0 {
			if amp := math.Abs(s.pts[i] - prev); amp > 0 {
				d += s.model.CycleDamage(amp) / 2
			}
		}
		prev = s.pts[i]
	}
	if s.started && s.n > 0 {
		if amp := math.Abs(s.last - prev); amp > 0 {
			d += s.model.CycleDamage(amp) / 2
		}
	}
	return d
}

// refRateFactor is RateFactor with nothing hoisted.
func refRateFactor(m EMModel, tempC float64) float64 {
	t := tempC + 273.15
	ref := m.RefC + 273.15
	return math.Exp(m.ActivationEV / boltzmannEV * (1/ref - 1/t))
}

// TestStreamMatchesReferenceBitwise feeds a Tracker and per-signal
// reference streams identical random walks — some with runs of
// strictly widening reversals that overflow the 64-point stack, some
// with flat stretches, NaN and ±Inf samples — and requires every
// signal's damage, closed damage, cycle count and EM sum to agree bit
// for bit after every Observe. Mid-run the tracker is saved, later
// loaded back (the references rewind to their copies at the save), and
// reset.
func TestStreamMatchesReferenceBitwise(t *testing.T) {
	const signals, ticks = 6, 3000
	tr, err := NewTracker(signals, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if d := tr.Damage(0); d != 0 {
		t.Fatalf("damage %v before any sample", d)
	}
	refs := make([]refStream, signals)
	refEM := make([]float64, signals)
	for i := range refs {
		refs[i] = refStream{model: tr.Cycling}
	}
	rng := rand.New(rand.NewSource(5))
	temps := make([]float64, signals)
	walk := make([]float64, signals)
	for i := range walk {
		walk[i] = 60
	}
	var (
		saved      TrackerState
		savedRefs  []refStream
		savedEM    []float64
		overflowed bool
	)
	for tick := 0; tick < ticks; tick++ {
		switch tick {
		case 700:
			tr.Save(&saved)
			savedRefs = append([]refStream(nil), refs...)
			savedEM = append([]float64(nil), refEM...)
		case 1400:
			if err := tr.Load(&saved); err != nil {
				t.Fatal(err)
			}
			copy(refs, savedRefs)
			copy(refEM, savedEM)
		case 2100:
			tr.Reset()
			for i := range refs {
				refs[i] = refStream{model: tr.Cycling}
				refEM[i] = 0
				if d := tr.Damage(i); d != 0 {
					t.Fatalf("signal %d: damage %v right after Reset", i, d)
				}
			}
		}
		for i := range temps {
			switch {
			case i == 0:
				// Strictly widening reversals: nothing ever closes, so
				// the stack overflows and retires its oldest leg.
				amp := float64(tick%200) * 0.5
				if tick%2 == 0 {
					temps[i] = 60 + amp
				} else {
					temps[i] = 60 - amp
				}
			case i == 1 && tick%97 == 0:
				temps[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[tick/97%3]
			case i == 2 && tick%50 < 10:
				// Flat stretch: zero-amplitude legs.
			default:
				walk[i] += rng.NormFloat64() * 3
				temps[i] = walk[i]
			}
		}
		if err := tr.Observe(temps); err != nil {
			t.Fatal(err)
		}
		for i, c := range temps {
			refs[i].push(c)
			refEM[i] += refRateFactor(tr.EM, c)
			s := &tr.streams[i]
			if s.n == streamCap {
				overflowed = true
			}
			if math.Float64bits(s.Damage()) != math.Float64bits(refs[i].damage()) ||
				math.Float64bits(s.ClosedDamage()) != math.Float64bits(refs[i].closedDamage) ||
				s.Cycles() != refs[i].cycles || s.n != refs[i].n {
				t.Fatalf("tick %d signal %d: damage %v closed %v cycles %d depth %d, reference %v %v %d %d",
					tick, i, s.Damage(), s.ClosedDamage(), s.Cycles(), s.n,
					refs[i].damage(), refs[i].closedDamage, refs[i].cycles, refs[i].n)
			}
			if math.Float64bits(tr.emSum[i]) != math.Float64bits(refEM[i]) {
				t.Fatalf("tick %d signal %d: EM sum %v, reference %v", tick, i, tr.emSum[i], refEM[i])
			}
		}
	}
	if !overflowed {
		t.Fatal("no stream reached the overflow path")
	}
}

// TestRateFactorMatchesReference pins the hoisted EM constants to the
// direct formula over a temperature sweep and non-default models.
func TestRateFactorMatchesReference(t *testing.T) {
	for _, m := range []EMModel{DefaultEM(), {ActivationEV: 0.9, RefC: 105}, {ActivationEV: 0.3, RefC: -20}} {
		for tc := -60.0; tc <= 200; tc += 0.37 {
			if got, want := m.RateFactor(tc), refRateFactor(m, tc); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%+v at %g °C: RateFactor %v, reference %v", m, tc, got, want)
			}
		}
	}
}

func BenchmarkStreamDamage(b *testing.B) {
	var s Stream
	s.Init(DefaultCycling())
	rng := rand.New(rand.NewSource(1))
	temp := 60.0
	for i := 0; i < 2000; i++ {
		temp += rng.NormFloat64() * 3
		s.Push(temp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var d float64
	for i := 0; i < b.N; i++ {
		d += s.Damage()
	}
	if d < 0 {
		b.Fatal("negative damage")
	}
}
