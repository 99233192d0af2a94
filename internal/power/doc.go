// Package power implements the paper's power model (Section IV-B):
// per-core active/idle/sleep states, three-level DVFS with P ∝ f·V²
// scaling, temperature- and voltage-dependent leakage (second-order
// polynomial in the style of Su et al. [25], calibrated to 0.5 W/mm²
// at 383 K), CACTI-derived L2 cache power, activity-scaled crossbar
// power, and chip energy accounting.
//
// # Place in the dataflow
//
// Each simulation tick, the engine (internal/sim) assembles a
// ChipInput from the scheduler's utilization/state vector and the
// previous interval's block temperatures (the leakage feedback loop),
// and Model.ComputeInto fills the per-block power vector that drives
// the thermal model's next transient step. The DVFSTable doubles as
// the policy layer's actuator vocabulary: policies pick VfLevels, the
// engine converts them to frequency scales for the scheduler and
// voltage/frequency factors for this model.
//
// # Per-call hoisting
//
// ComputeInto runs once per simulated tick, and again for every tick
// of every MPC rollout lane, so it does per block only what differs
// per block. It has a pointer receiver, so the Model is not copied
// per call. Once per call it computes the chip-wide activity
// summaries, the single L2 bank power and crossbar power every such
// block shares, and the leakage curve's constants (the parabola's
// vertex -C1/(2·C2) and the GCap default, held by the unexported
// tempCurve, which is the one definition of g(T)). Whether a filler
// block sits on a core-free memory layer is a flag floorplan.Stack
// computes once when it is built. Each block's own arithmetic keeps
// the operation order of the per-block formulas — core power ×
// PowerScale; leakage Base·area·g·v·v, then × the density factor — so
// the vector is bit for bit what evaluating each block on its own
// gives (TestComputeIntoMatchesReference keeps that per-block form as
// its oracle).
//
// # Buffer ownership and concurrency
//
// ComputeInto writes into a caller-owned block-power slice and retains
// neither it nor the input temperature slice — the tick loop's
// allocation contract depends on that. It only reads the Model and
// the stack; nothing here locks.
package power
