package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/floorplan"
)

// pushRef is the single-bodied deque push the specialized pushMax and
// pushMin must match: keepMax selects the max-deque order (back values
// <= t are dominated), otherwise the min-deque order.
func (w *wedge) pushRef(s, window int, t float64, keepMax bool) {
	cap := len(w.val)
	for w.size > 0 && w.idx[w.head] <= s-window {
		w.head++
		if w.head == cap {
			w.head = 0
		}
		w.size--
	}
	for w.size > 0 {
		back := w.head + w.size - 1
		if back >= cap {
			back -= cap
		}
		if v := w.val[back]; (keepMax && v <= t) || (!keepMax && v >= t) {
			w.size--
		} else {
			break
		}
	}
	pos := w.head + w.size
	if pos >= cap {
		pos -= cap
	}
	w.val[pos] = t
	w.idx[pos] = s
	w.size++
}

func newWedge(window int) wedge {
	return wedge{val: make([]float64, window), idx: make([]int, window)}
}

// sameWedge compares two deques' live state, values by bit pattern.
func sameWedge(a, b *wedge) bool {
	if a.head != b.head || a.size != b.size {
		return false
	}
	for i := range a.val {
		if math.Float64bits(a.val[i]) != math.Float64bits(b.val[i]) || a.idx[i] != b.idx[i] {
			return false
		}
	}
	return true
}

// TestWedgePushMatchesReference drives the specialized pushes and the
// reference push with identical streams that include NaN, ±0, ±Inf and
// long runs of ties, and requires the deques to agree bit for bit
// after every push.
func TestWedgePushMatchesReference(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 70, 70}
	rng := rand.New(rand.NewSource(3))
	for _, window := range []int{2, 3, 7, 50} {
		gotMax, wantMax := newWedge(window), newWedge(window)
		gotMin, wantMin := newWedge(window), newWedge(window)
		for s := 1; s <= 5000; s++ {
			var v float64
			switch r := rng.Intn(10); {
			case r < 2:
				v = specials[rng.Intn(len(specials))]
			case r < 4:
				v = float64(rng.Intn(4)) // frequent ties
			default:
				v = 60 + 25*rng.Float64()
			}
			gotMax.pushMax(s, window, v)
			wantMax.pushRef(s, window, v, true)
			gotMin.pushMin(s, window, v)
			wantMin.pushRef(s, window, v, false)
			if !sameWedge(&gotMax, &wantMax) {
				t.Fatalf("window %d sample %d (%v): max deque diverged", window, s, v)
			}
			if !sameWedge(&gotMin, &wantMin) {
				t.Fatalf("window %d sample %d (%v): min deque diverged", window, s, v)
			}
		}
	}
}

// TestCollectorSnapshotMidWindow saves a collector partway through a
// cycle window, loads the state into a fresh collector, and feeds it
// the remaining samples: its metrics must agree bit for bit with the
// uninterrupted collector's.
func TestCollectorSnapshotMidWindow(t *testing.T) {
	s := floorplan.MustBuild(floorplan.EXP3)
	cfg := CollectorConfig{CycleWindow: 20}
	mk := func() *Collector {
		c, err := NewCollector(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rng := rand.New(rand.NewSource(11))
	const ticks = 300
	blocks := make([][]float64, ticks)
	cores := make([][]float64, ticks)
	for i := range blocks {
		blocks[i] = make([]float64, s.NumBlocks())
		for j := range blocks[i] {
			blocks[i][j] = 50 + 40*rng.Float64()
		}
		cores[i] = make([]float64, s.NumCores())
		for c, b := range s.Cores() {
			cores[i][c] = blocks[i][s.BlockIndex(b)]
		}
	}
	var st CollectorState
	for _, cut := range []int{7, 33, 151} { // before, just after and well past the first full window
		live, restored := mk(), mk()
		for i := 0; i < ticks; i++ {
			if i == cut {
				live.Save(&st)
				if err := restored.Load(&st); err != nil {
					t.Fatal(err)
				}
			}
			if err := live.Record(blocks[i], cores[i]); err != nil {
				t.Fatal(err)
			}
			if i >= cut {
				if err := restored.Record(blocks[i], cores[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		if live.Cycle.MeanDeltaC() == 0 {
			t.Fatal("trace produced no cycle samples")
		}
		if math.Float64bits(restored.Cycle.MeanDeltaC()) != math.Float64bits(live.Cycle.MeanDeltaC()) ||
			restored.Cycle.Pct() != live.Cycle.Pct() {
			t.Fatalf("cut %d: restored cycle metrics %v/%v, live %v/%v", cut,
				restored.Cycle.MeanDeltaC(), restored.Cycle.Pct(), live.Cycle.MeanDeltaC(), live.Cycle.Pct())
		}
		if got, want := restored.Summarize(), live.Summarize(); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: restored summary %+v, live %+v", cut, got, want)
		}
	}
}

// gradientRef is GradientMeter.Record's per-sample worst in-plane
// gradient computed with math.Min/math.Max.
func gradientRef(layerIdx [][]int, blockTempsC []float64) float64 {
	worst := 0.0
	for _, idx := range layerIdx {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, bi := range idx {
			t := blockTempsC[bi]
			lo = math.Min(lo, t)
			hi = math.Max(hi, t)
		}
		if d := hi - lo; d > worst {
			worst = d
		}
	}
	return worst
}

// TestGradientMeterMatchesReference checks the builtin min/max scan
// against math.Min/math.Max on block fields salted with NaN (of
// several payloads), ±0 and ±Inf: the accumulated metrics must agree
// bit for bit.
func TestGradientMeterMatchesReference(t *testing.T) {
	zero := 0.0
	specials := []float64{math.NaN(), zero / zero, math.Float64frombits(0x7ff0000000000123),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(9))
	for _, e := range floorplan.ExtendedExperiments() {
		s := floorplan.MustBuild(e)
		g := NewGradientMeter(s, 15)
		var samples, above int
		var sumMax, maxSeen float64
		temps := make([]float64, s.NumBlocks())
		for tick := 0; tick < 2000; tick++ {
			for i := range temps {
				if rng.Intn(40) == 0 {
					temps[i] = specials[rng.Intn(len(specials))]
				} else {
					temps[i] = 40 + 60*rng.Float64()
				}
			}
			if err := g.Record(temps); err != nil {
				t.Fatal(err)
			}
			worst := gradientRef(g.layerIdx, temps)
			samples++
			sumMax += worst
			if worst > maxSeen {
				maxSeen = worst
			}
			if worst > 15 {
				above++
			}
			if g.samples != samples || g.above != above ||
				math.Float64bits(g.sumMax) != math.Float64bits(sumMax) ||
				math.Float64bits(g.maxSeen) != math.Float64bits(maxSeen) {
				t.Fatalf("%v tick %d: meter (%d, %d, %v, %v), reference (%d, %d, %v, %v)", e, tick,
					g.samples, g.above, g.sumMax, g.maxSeen, samples, above, sumMax, maxSeen)
			}
		}
	}
}
