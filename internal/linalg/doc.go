// Package linalg implements the linear algebra kernels needed by the
// thermal RC-network solvers. It is the bottom of the stack: it knows
// nothing about floorplans or temperatures, only CSR/dense matrices —
// internal/thermal is its sole in-repo consumer.
//
// Two solve paths are available:
//
//   - Sparse direct (Cholesky): an LDLᵀ factorization of the CSR
//     conductance matrix with a fill-reducing ordering — reverse
//     Cuthill-McKee for small block-mode systems, minimum degree for
//     grid-mode systems whose package "hub" nodes would otherwise
//     cause catastrophic fill (MinDegree keeps its elimination graph
//     in neighbour slices with a marker array, no maps). RC
//     conductance systems are symmetric positive definite, and
//     factoring once then back-solving per step turns the dense O(n³)
//     solve into O(nnz(L)) per step. This is the only path the
//     simulator uses.
//   - Dense LU with partial pivoting (Factor/SolveDense): the
//     independent reference the thermal cross-validation tests check
//     the sparse path against.
//
// # Panel (multi-RHS) solves
//
// Cholesky.SolvePanel solves k right-hand sides through one blocked
// traversal of the triangular factors: the column-major n×k panel is
// gathered into a lane-interleaved working layout so the forward,
// diagonal, and backward sweeps walk L's sparsity pattern once with
// unit-stride inner loops over the k lanes. Lanes are processed in
// register blocks of eight: per column of L, the forward sweep loads
// the block's eight lane values once and, when none is zero, updates
// every row without branches (otherwise each lane keeps the scalar
// path's zero skip, which preserves -0.0); the backward sweep keeps
// eight accumulators in registers for the whole column. The k mod 8
// lanes that do not fill a block run through the generic interleaved
// loop. Per lane the floating-point operation sequence is exactly
// SolveBuffered's, so panel results are bitwise identical to k scalar
// solves — the contract the batched transient stepping in
// internal/thermal builds on.
//
// # Buffer ownership and concurrency
//
// The package is deliberately small and allocation-conscious: thermal
// simulation factors one matrix per network and then performs millions
// of solve/mat-vec operations, so the hot paths (SolveInto-style
// methods) write into caller-owned slices and allocate nothing. A
// completed factorization is immutable and safe to share across
// goroutines (the thermal factorization cache does exactly that);
// factoring itself is not synchronized. SolvePanel's dst and rhs may
// alias each other; the scratch buffer (length n·k) is caller-owned
// and clobbered, never retained.
package linalg
