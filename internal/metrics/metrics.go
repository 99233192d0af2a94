package metrics

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
)

// HotSpotMeter measures the fraction of core-time spent above a
// temperature threshold (Figures 3-4 use 85 °C).
type HotSpotMeter struct {
	ThresholdC float64
	samples    int
	hot        int
	perCoreHot []int
	maxTempC   float64
}

// NewHotSpotMeter builds a meter for numCores cores.
func NewHotSpotMeter(numCores int, thresholdC float64) *HotSpotMeter {
	return &HotSpotMeter{ThresholdC: thresholdC, perCoreHot: make([]int, numCores), maxTempC: math.Inf(-1)}
}

// Record adds one sampling interval of per-core temperatures.
func (m *HotSpotMeter) Record(coreTempsC []float64) {
	for c, t := range coreTempsC {
		m.samples++
		if t > m.ThresholdC {
			m.hot++
			if c < len(m.perCoreHot) {
				m.perCoreHot[c]++
			}
		}
		if t > m.maxTempC {
			m.maxTempC = t
		}
	}
}

// Pct returns the percentage of core-samples above the threshold.
func (m *HotSpotMeter) Pct() float64 {
	if m.samples == 0 {
		return 0
	}
	return 100 * float64(m.hot) / float64(m.samples)
}

// MaxTempC returns the hottest core temperature seen (NaN-safe: -Inf
// before any sample).
func (m *HotSpotMeter) MaxTempC() float64 { return m.maxTempC }

// PerCorePct returns the per-core hot residency in percent.
func (m *HotSpotMeter) PerCorePct() []float64 {
	out := make([]float64, len(m.perCoreHot))
	if m.samples == 0 {
		return out
	}
	perCoreSamples := m.samples / len(m.perCoreHot)
	if perCoreSamples == 0 {
		return out
	}
	for c, h := range m.perCoreHot {
		out[c] = 100 * float64(h) / float64(perCoreSamples)
	}
	return out
}

// GradientMeter measures in-plane spatial gradients: at every sample the
// per-layer (hottest unit - coolest unit) difference is computed and the
// maximum over layers compared against the threshold (15 °C in Figure 5,
// after [1]: 15-20 °C gradients start causing clock skew and delay
// problems).
type GradientMeter struct {
	ThresholdC float64
	stack      *floorplan.Stack
	// layerIdx holds each layer's block indices, precomputed because
	// Stack.BlockIndex is a linear scan and Record runs every tick.
	layerIdx [][]int
	samples  int
	above    int
	sumMax   float64
	maxSeen  float64
}

// NewGradientMeter builds a meter over the stack's layers.
func NewGradientMeter(stack *floorplan.Stack, thresholdC float64) *GradientMeter {
	g := &GradientMeter{ThresholdC: thresholdC, stack: stack}
	g.layerIdx = make([][]int, len(stack.Layers))
	for li, layer := range stack.Layers {
		idx := make([]int, len(layer.Blocks))
		for i, b := range layer.Blocks {
			idx[i] = stack.BlockIndex(b)
		}
		g.layerIdx[li] = idx
	}
	return g
}

// Record adds one sample of per-block temperatures (stack block order).
func (g *GradientMeter) Record(blockTempsC []float64) error {
	if len(blockTempsC) != g.stack.NumBlocks() {
		return fmt.Errorf("metrics: gradient meter got %d temps for %d blocks", len(blockTempsC), g.stack.NumBlocks())
	}
	worst := 0.0
	for _, idx := range g.layerIdx {
		// The builtin min/max order NaN, ±0 and ±Inf as math.Min/Max
		// do and compile inline; they may return a different NaN
		// payload, which the d > worst test below discards.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, bi := range idx {
			t := blockTempsC[bi]
			lo = min(lo, t)
			hi = max(hi, t)
		}
		if d := hi - lo; d > worst {
			worst = d
		}
	}
	g.samples++
	g.sumMax += worst
	if worst > g.maxSeen {
		g.maxSeen = worst
	}
	if worst > g.ThresholdC {
		g.above++
	}
	return nil
}

// Pct returns the percentage of samples whose worst per-layer gradient
// exceeds the threshold.
func (g *GradientMeter) Pct() float64 {
	if g.samples == 0 {
		return 0
	}
	return 100 * float64(g.above) / float64(g.samples)
}

// MeanMaxGradientC returns the time-average of the per-sample worst
// gradient.
func (g *GradientMeter) MeanMaxGradientC() float64 {
	if g.samples == 0 {
		return 0
	}
	return g.sumMax / float64(g.samples)
}

// MaxGradientC returns the worst gradient observed.
func (g *GradientMeter) MaxGradientC() float64 { return g.maxSeen }

// VerticalGradientMeter tracks the temperature difference between
// vertically overlapping blocks on adjacent layers — the quantity that
// stresses TSVs. The paper observes these stay within a few degrees.
type VerticalGradientMeter struct {
	stack   *floorplan.Stack
	pairs   [][2]int // block index pairs with vertical overlap
	samples int
	sumMax  float64
	maxSeen float64
}

// NewVerticalGradientMeter precomputes the overlapping pairs.
func NewVerticalGradientMeter(stack *floorplan.Stack) *VerticalGradientMeter {
	m := &VerticalGradientMeter{stack: stack}
	for li := 0; li+1 < len(stack.Layers); li++ {
		for _, bl := range stack.Layers[li].Blocks {
			for _, bu := range stack.Layers[li+1].Blocks {
				if bl.Rect.OverlapArea(bu.Rect) > 0 {
					m.pairs = append(m.pairs, [2]int{stack.BlockIndex(bl), stack.BlockIndex(bu)})
				}
			}
		}
	}
	return m
}

// Record adds one sample of per-block temperatures.
func (m *VerticalGradientMeter) Record(blockTempsC []float64) error {
	if len(blockTempsC) != m.stack.NumBlocks() {
		return fmt.Errorf("metrics: vertical meter got %d temps for %d blocks", len(blockTempsC), m.stack.NumBlocks())
	}
	worst := 0.0
	for _, p := range m.pairs {
		if d := math.Abs(blockTempsC[p[0]] - blockTempsC[p[1]]); d > worst {
			worst = d
		}
	}
	m.samples++
	m.sumMax += worst
	if worst > m.maxSeen {
		m.maxSeen = worst
	}
	return nil
}

// MaxC returns the worst vertical gradient observed.
func (m *VerticalGradientMeter) MaxC() float64 { return m.maxSeen }

// MeanMaxC returns the time-averaged worst vertical gradient.
func (m *VerticalGradientMeter) MeanMaxC() float64 {
	if m.samples == 0 {
		return 0
	}
	return m.sumMax / float64(m.samples)
}

// NumPairs returns how many overlapping block pairs are tracked.
func (m *VerticalGradientMeter) NumPairs() int { return len(m.pairs) }
