package sim

import (
	"fmt"

	"repro/internal/floorplan"
)

// ModelKey returns the canonical identity of the thermal system a
// config builds: two configs produce equal keys exactly when Run would
// hand them the same shared-cache factorization — same experiment
// stack, joint resistivity, grid discretization, and tick length (the transient factorization bakes in C/dt). Sweep
// grouping (exp.GroupKey) and Prewarm both derive from it, so batched
// jobs can never be grouped across — or warm — a factorization the run
// would not use.
//
// Zero-valued fields resolve to the same defaults withDefaults
// applies. Declarative stacks (Config.StackSpec) key on the spec's
// content hash — any spec field that changes the built system changes
// the hash — so spec-built runs batch and prewarm exactly like the
// builtin experiments. It errors on configs with no canonical
// identity: a custom stack (caller-built geometry is not comparable by
// value; express it as a StackSpec instead) or a partial grid spec
// (exactly one of GridRows/GridCols positive — the silent block-mode
// fallback this helper exists to prevent).
func ModelKey(cfg Config) (string, error) {
	if cfg.CustomStack != nil {
		return "", fmt.Errorf("sim: custom stacks have no canonical model key (use Config.StackSpec)")
	}
	if (cfg.GridRows > 0) != (cfg.GridCols > 0) {
		return "", fmt.Errorf("sim: partial grid spec %dx%d: set both GridRows and GridCols or neither", cfg.GridRows, cfg.GridCols)
	}
	tick := cfg.TickS
	if tick == 0 {
		tick = 0.1
	}
	var key string
	if cfg.StackSpec != nil {
		// The hash covers every spec field including interlayer
		// resistivity, so jr does not appear separately.
		key = fmt.Sprintf("stack:%s|tick%gs", cfg.StackSpec.Hash(), tick)
	} else {
		exp := cfg.Exp
		if exp == 0 {
			exp = floorplan.EXP1
		}
		jr := cfg.JointResistivityMKW
		if jr == 0 {
			jr = 0.23
		}
		key = fmt.Sprintf("%s|jr%g|tick%gs", exp, jr, tick)
	}
	if cfg.GridRows > 0 {
		key = fmt.Sprintf("%s|grid%dx%d", key, cfg.GridRows, cfg.GridCols)
	}
	return key, nil
}
