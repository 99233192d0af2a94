package exp

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/policy"
	"repro/internal/thermal"
)

// PolicyOrder is the paper's Figure 3 x-axis ordering, extended with
// the lifetime-aware DVFS_Rel policy and the model-predictive
// MPC_Thermal/MPC_Rel pair (inserted after the paper's DVFS variants;
// everything else keeps its published position).
var PolicyOrder = []string{
	"Default",
	"CGate",
	"DVFS_TT",
	"DVFS_Util",
	"DVFS_FLP",
	"DVFS_Rel",
	"MPC_Thermal",
	"MPC_Rel",
	"Migr",
	"AdaptRand",
	"Adapt3D",
	"Adapt3D&DVFS_TT",
	"Adapt3D&DVFS_Util",
	"Adapt3D&DVFS_FLP",
}

// BuildPolicySet constructs the full roster for one stack: the paper's
// seven baselines plus the lifetime-aware DVFS_Rel, Adapt3D with
// thermal indices derived offline from the block thermal model, and
// the three hybrid policies of Section III-C. Every stochastic policy
// gets a deterministic seed derived from seed.
func BuildPolicySet(stack *floorplan.Stack, seed int64) ([]policy.Policy, error) {
	model, err := thermal.NewBlockModel(stack, thermal.DefaultParams())
	if err != nil {
		return nil, err
	}
	base, err := policy.Registry(stack.NumCores(), seed)
	if err != nil {
		return nil, err
	}
	mkAdapt := func(s int64) (*core.Adapt3D, error) {
		cfg := core.DefaultConfig()
		cfg.Seed = s
		return core.NewWithModel(stack, model, cfg)
	}
	a3d, err := mkAdapt(seed + 1)
	if err != nil {
		return nil, err
	}
	out := append([]policy.Policy{}, base...)
	out = append(out, a3d)
	for i, dvfs := range []policy.Policy{policy.NewDVFSTT(), policy.NewDVFSUtil(), policy.NewDVFSFLP()} {
		alloc, err := mkAdapt(seed + 2 + int64(i))
		if err != nil {
			return nil, err
		}
		h, err := policy.NewHybrid(alloc, dvfs)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	if len(out) != len(PolicyOrder) {
		return nil, fmt.Errorf("exp: built %d policies, expected %d", len(out), len(PolicyOrder))
	}
	for i, p := range out {
		if p.Name() != PolicyOrder[i] {
			return nil, fmt.Errorf("exp: policy %d is %q, expected %q", i, p.Name(), PolicyOrder[i])
		}
	}
	return out, nil
}

// KnownPolicy reports whether name is a buildable policy. It lets
// request validation (the dtmserved sweep API) reject a bad roster
// before any simulation starts, instead of failing mid-stream when
// BuildPolicy first sees the name.
func KnownPolicy(name string) bool {
	for _, p := range PolicyOrder {
		if p == name {
			return true
		}
	}
	return false
}

// BuildPolicy constructs a single policy by name (cmd/dtmsim, the sweep
// runners, and live sessions' set_policy events).
func BuildPolicy(name string, stack *floorplan.Stack, seed int64) (policy.Policy, error) {
	set, err := BuildPolicySet(stack, seed)
	if err != nil {
		return nil, err
	}
	for _, p := range set {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown policy %q (want one of %v)", name, PolicyOrder)
}
