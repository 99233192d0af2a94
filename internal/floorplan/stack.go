package floorplan

import (
	"fmt"
	"math"

	"repro/internal/geometry"
)

// Table II parameters of the paper (floorplan-related subset).
const (
	// DieThicknessMM is the thickness of one silicon stack layer (Table II).
	DieThicknessMM = 0.15
	// CoreAreaMM2 is the area of one SPARC core (Table II).
	CoreAreaMM2 = 10.0
	// L2AreaMM2 is the area of one L2 cache bank (Table II).
	L2AreaMM2 = 19.0
	// LayerAreaMM2 is the total area of each layer (Table II).
	LayerAreaMM2 = 115.0
	// InterlayerThicknessMM is the interface material thickness between
	// stacked silicon layers (Table II).
	InterlayerThicknessMM = 0.02
	// InterlayerResistivity is the raw interface material thermal
	// resistivity in m·K/W before accounting for TSVs (Table II).
	InterlayerResistivity = 0.25
)

// Chip in-plane dimensions chosen so that ChipWMM*ChipHMM == LayerAreaMM2.
const (
	ChipWMM = 11.5
	ChipHMM = 10.0
)

// Layer is one silicon tier of the stack.
type Layer struct {
	Index       int      // 0 = closest to heat sink
	Blocks      []*Block // all blocks on this layer
	ThicknessMM float64  // silicon thickness, mm
}

// Bounds returns the layer's bounding rectangle.
func (l *Layer) Bounds() geometry.Rect {
	return geometry.Rect{X: 0, Y: 0, W: ChipWMM, H: ChipHMM}
}

// Cores returns the core blocks on this layer in CoreID order of appearance.
func (l *Layer) Cores() []*Block {
	var out []*Block
	for _, b := range l.Blocks {
		if b.IsCore() {
			out = append(out, b)
		}
	}
	return out
}

// Stack is a full 3D chip: an ordered set of silicon layers plus the
// interface material between them. Layer 0 attaches (through the package)
// to the heat spreader and sink.
type Stack struct {
	Name   string
	Layers []*Layer

	// InterlayerResistivityMKW is the joint interface-material resistivity
	// in m·K/W after accounting for TSV density (0.23 in the paper's
	// experiments; see thermal.JointResistivity).
	InterlayerResistivityMKW float64
	// InterlayerThicknessMM is the interface material thickness in mm.
	InterlayerThicknessMM float64

	// Interfaces optionally overrides the bonding interface between
	// consecutive layers (entry i sits between layers i and i+1; length
	// NumLayers-1 when set). Nil means every interface uses the uniform
	// stack-level resistivity and thickness above — the paper's
	// configuration. Built from StackSpec.Interfaces.
	Interfaces []InterfaceProps

	blocks   []*Block // flattened, cached
	cores    []*Block // CoreID-indexed, cached
	l2s      []*Block // L2ID-indexed, cached
	memLayer []bool   // layer-indexed: true when the layer has no cores
}

// InterfaceProps are the resolved physical properties of one bonding
// interface between adjacent silicon layers.
type InterfaceProps struct {
	// ResistivityMKW is the joint interface-material resistivity, m·K/W.
	ResistivityMKW float64
	// ThicknessMM is the interface material thickness, mm.
	ThicknessMM float64
	// CoolantHTCWm2K, when positive, models an interlayer microfluidic
	// channel in this interface: the facing surfaces of both adjacent
	// layers couple to coolant held at ambient with this heat transfer
	// coefficient (W/(m²·K)), linearized so the system stays SPD.
	CoolantHTCWm2K float64
}

// Interface returns the resolved properties of the bonding interface
// between layers i and i+1, falling back to the uniform stack-level
// values. The fallbacks return the stack fields unmodified, so legacy
// uniform stacks produce bitwise-identical thermal matrices through
// this accessor.
func (s *Stack) Interface(i int) InterfaceProps {
	p := InterfaceProps{
		ResistivityMKW: s.InterlayerResistivityMKW,
		ThicknessMM:    s.InterlayerThicknessMM,
	}
	if i < 0 || i >= len(s.Interfaces) {
		return p
	}
	o := s.Interfaces[i]
	if o.ResistivityMKW > 0 {
		p.ResistivityMKW = o.ResistivityMKW
	}
	if o.ThicknessMM > 0 {
		p.ThicknessMM = o.ThicknessMM
	}
	p.CoolantHTCWm2K = o.CoolantHTCWm2K
	return p
}

// finish flattens and indexes the stack's blocks; builders call it once.
func (s *Stack) finish() error {
	s.blocks = nil
	s.memLayer = make([]bool, len(s.Layers))
	numCores, numL2 := 0, 0
	for li, l := range s.Layers {
		s.memLayer[li] = true
		for _, b := range l.Blocks {
			s.blocks = append(s.blocks, b)
			if b.FreqScale == 0 {
				b.FreqScale = 1
			}
			if b.PowerScale == 0 {
				b.PowerScale = 1
			}
			if b.IsCore() {
				numCores++
				s.memLayer[li] = false
			}
			if b.Kind == KindL2 {
				numL2++
			}
		}
	}
	s.cores = make([]*Block, numCores)
	s.l2s = make([]*Block, numL2)
	for _, b := range s.blocks {
		switch {
		case b.IsCore():
			if b.CoreID < 0 || b.CoreID >= numCores || s.cores[b.CoreID] != nil {
				return fmt.Errorf("floorplan: stack %q has invalid or duplicate CoreID %d on block %q", s.Name, b.CoreID, b.Name)
			}
			s.cores[b.CoreID] = b
		case b.Kind == KindL2:
			if b.L2ID < 0 || b.L2ID >= numL2 || s.l2s[b.L2ID] != nil {
				return fmt.Errorf("floorplan: stack %q has invalid or duplicate L2ID %d on block %q", s.Name, b.L2ID, b.Name)
			}
			s.l2s[b.L2ID] = b
		}
	}
	return nil
}

// Finalize indexes a hand-built stack (flattening blocks, building the
// CoreID/L2ID tables) and validates it. Stacks produced by Build are
// already finalized; custom stacks must call Finalize before use.
func (s *Stack) Finalize() error {
	if err := s.finish(); err != nil {
		return err
	}
	return s.Validate()
}

// Blocks returns every block in the stack, layer by layer.
func (s *Stack) Blocks() []*Block { return s.blocks }

// NumBlocks returns the total number of blocks.
func (s *Stack) NumBlocks() int { return len(s.blocks) }

// Cores returns the stack's core blocks indexed by CoreID.
func (s *Stack) Cores() []*Block { return s.cores }

// NumCores returns the number of processing cores in the stack.
func (s *Stack) NumCores() int { return len(s.cores) }

// L2s returns the stack's L2 banks indexed by L2ID.
func (s *Stack) L2s() []*Block { return s.l2s }

// IsMemoryLayer reports whether layer i carries no cores (a memory
// tier). finish computes the flags once, so the per-tick power loop
// reads one bool per filler block instead of scanning the layer.
func (s *Stack) IsMemoryLayer(i int) bool { return s.memLayer[i] }

// NumLayers returns the number of silicon layers.
func (s *Stack) NumLayers() int { return len(s.Layers) }

// Core returns the core block with the given CoreID.
func (s *Stack) Core(id int) *Block {
	if id < 0 || id >= len(s.cores) {
		panic(fmt.Sprintf("floorplan: core id %d out of range [0,%d)", id, len(s.cores)))
	}
	return s.cores[id]
}

// BlockIndex returns the position of block b in Blocks(), or -1.
func (s *Stack) BlockIndex(b *Block) int {
	for i, x := range s.blocks {
		if x == b {
			return i
		}
	}
	return -1
}

// LayerDistanceFromSink returns, for a core, how many layers separate it
// from the heat sink side (0 = adjacent to the package).
func (s *Stack) LayerDistanceFromSink(coreID int) int { return s.Core(coreID).Layer }

// CoreCentrality returns the lateral centrality in [0,1] of the given core
// within its layer (1 = die centre). Used by the DVFS_FLP policy.
func (s *Stack) CoreCentrality(coreID int) float64 {
	c := s.Core(coreID)
	return c.Rect.Centrality(s.Layers[c.Layer].Bounds())
}

// HotSusceptibility combines vertical position (distance from the heat
// sink) and lateral centrality into a single score in (0,1]: higher means
// the core's location makes it more prone to hot spots. This is the
// floorplan-knowledge input used by DVFS_FLP and for the offline thermal
// index of Adapt3D when a thermal solve is unavailable.
func (s *Stack) HotSusceptibility(coreID int) float64 {
	nl := float64(s.NumLayers())
	layerScore := (float64(s.Core(coreID).Layer) + 1) / nl // farther from sink -> higher
	central := s.CoreCentrality(coreID)                    // central -> higher
	// Vertical position dominates in 3D stacks; lateral position is the
	// secondary 2D effect described in Section III-A of the paper.
	score := 0.7*layerScore + 0.3*central
	return math.Min(1, math.Max(1e-3, score))
}

// Validate checks structural invariants: blocks lie within layer bounds,
// no two blocks on a layer overlap, every layer is (almost) fully covered,
// and core/L2 IDs are consistent.
func (s *Stack) Validate() error {
	if len(s.Layers) == 0 {
		return fmt.Errorf("floorplan: stack %q has no layers", s.Name)
	}
	if len(s.Interfaces) > 0 && len(s.Interfaces) != len(s.Layers)-1 {
		return fmt.Errorf("floorplan: stack %q has %d interface overrides for %d layers (want %d)",
			s.Name, len(s.Interfaces), len(s.Layers), len(s.Layers)-1)
	}
	for li, l := range s.Layers {
		if l.Index != li {
			return fmt.Errorf("floorplan: stack %q layer %d has mismatched index %d", s.Name, li, l.Index)
		}
		bounds := l.Bounds()
		covered := 0.0
		for i, b := range l.Blocks {
			if b.Layer != li {
				return fmt.Errorf("floorplan: block %q claims layer %d but sits on layer %d", b.Name, b.Layer, li)
			}
			if !bounds.ContainsRect(b.Rect) {
				return fmt.Errorf("floorplan: block %q extends outside layer bounds: %v", b.Name, b.Rect)
			}
			covered += b.Area()
			for j := i + 1; j < len(l.Blocks); j++ {
				if a := b.Rect.OverlapArea(l.Blocks[j].Rect); a > 1e-6 {
					return fmt.Errorf("floorplan: blocks %q and %q overlap by %.4f mm²", b.Name, l.Blocks[j].Name, a)
				}
			}
		}
		if math.Abs(covered-LayerAreaMM2) > 0.5 {
			return fmt.Errorf("floorplan: layer %d covers %.2f mm², want %.2f", li, covered, LayerAreaMM2)
		}
	}
	// finish() already verified ID consistency; re-run to be safe on
	// hand-built stacks.
	tmp := *s
	if err := tmp.finish(); err != nil {
		return err
	}
	return nil
}
