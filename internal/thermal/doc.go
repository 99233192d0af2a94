// Package thermal implements a HotSpot-style compact thermal model for 3D
// stacked chips: an RC network built from a floorplan stack (block mode or
// grid mode), a package model (thermal interface material, copper
// spreader, finned heat sink, convection to ambient), steady-state and
// transient solvers, the TSV joint-resistivity model of the paper's
// Figure 2, and noisy temperature sensors.
//
// # Solvers
//
// Steady-state and transient temperatures come from linear solves
// against the sparse conductance system, which is symmetric positive
// definite, through one sparse LDLᵀ factorization per system. Every
// simulation takes the shared path (SolverCached): factorizations are
// cached process-wide under a content hash of the conductance matrix,
// capacitances, and time step — i.e. by stack geometry plus thermal
// parameters. Sweeps running many simulations over the same stacks
// factor each system once and reuse it from every worker; concurrent
// first access factors exactly once. SolverSparse computes the same
// factorization privately, for one-shot geometries (floorplan search
// candidates) that would only fill the cache.
//
// Nothing in the package densifies the conductance matrix; the dense
// LU reference lives in the cross-validation tests. See
// FactorCacheStats and ResetFactorCache for cache introspection.
//
// # Batched transient stepping
//
// Transients that share one cached factorization — the cache hands the
// same *linalg.Cholesky to every integrator built from the same stack
// geometry, parameters, and time step — can advance in lockstep:
// TransientBatch gathers every lane's implicit-Euler right-hand side
// into a column-major panel and performs one blocked triangular solve
// (linalg.Cholesky.SolvePanel) per tick instead of K independent
// sparse sweeps. Per lane the arithmetic is exactly
// Transient.StepInto's, so batched trajectories are bitwise identical
// to sequential ones. NewTransientBatch returns ErrNotBatchable when
// lanes don't share a factorization; callers fall back to stepping
// each integrator alone. The batch owns its panel and scratch
// (allocated once), the lanes keep owning their integrator state, and
// a batch belongs to one goroutine like the Transients it drives.
//
// Internally everything is SI: metres, watts, kelvins (temperatures are
// expressed in °C above an absolute ambient, which is equivalent for a
// linear network). Floorplan geometry arrives in millimetres and is
// converted during network construction.
//
// # Place in the dataflow
//
// The simulation engine builds one Model per run from its floorplan
// stack, initializes temperatures with a leakage-consistent
// steady-state solve, then advances a Transient once per 100 ms tick
// with the power model's per-block output; sensors add the paper's
// noise model on the way back to the policy layer.
//
// # Buffer ownership and concurrency
//
// The hot-path methods (Transient.StepInto, Model.ExpandPowerInto /
// BlockTempsInto / CoreTempsInto, Sensors.ReadInto) write into
// caller-owned slices and retain nothing; source and destination must
// not alias except where a method documents otherwise
// (Sensors.ReadInto allows dst to alias its input). A Model and its
// Transients belong to one simulation goroutine; the only shared state
// is the factorization cache, which is internally synchronized and
// safe for every worker of a sweep pool.
package thermal
