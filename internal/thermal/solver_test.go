package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/linalg"
)

// solverModels enumerates every builtin block model (EXP-1..EXP-6,
// the full coverage roster) plus grid models — all the systems the
// paper's and the extended sweeps solve.
func solverModels(t *testing.T) map[string]*Model {
	t.Helper()
	out := make(map[string]*Model)
	for _, e := range floorplan.ExtendedExperiments() {
		s := floorplan.MustBuild(e)
		m, err := NewBlockModel(s, DefaultParams())
		if err != nil {
			t.Fatalf("block model %v: %v", e, err)
		}
		out["block/"+e.String()] = m
	}
	for _, e := range []floorplan.Experiment{floorplan.EXP1, floorplan.EXP4} {
		s := floorplan.MustBuild(e)
		m, err := NewGridModel(s, DefaultParams(), 8, 8)
		if err != nil {
			t.Fatalf("grid model %v: %v", e, err)
		}
		out["grid8x8/"+e.String()] = m
	}
	return out
}

// randomPower returns a seeded power vector with cores dissipating a few
// watts and everything else a small floor.
func randomPower(m *Model, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	p := make([]float64, m.NumBlocks())
	for i := range p {
		p[i] = 0.1 + 4*rng.Float64()
	}
	return p
}

// denseSteadyState is the test-only dense reference for SteadyState:
// it densifies G and solves with LU partial pivoting, sharing no code
// with the sparse factorization path.
func denseSteadyState(m *Model, blockPower []float64) ([]float64, error) {
	pn, err := m.ExpandPower(blockPower)
	if err != nil {
		return nil, err
	}
	rise, err := linalg.SolveDense(m.G.ToDense(), pn)
	if err != nil {
		return nil, err
	}
	for i := range rise {
		rise[i] += m.Params.AmbientC
	}
	return rise, nil
}

// denseTransient is the test-only dense reference for Transient: the
// same implicit-Euler recurrence with C/dt + G densified and
// LU-factored.
type denseTransient struct {
	m         *Model
	lu        *linalg.LU
	cdt, rise []float64
}

func newDenseTransient(m *Model, dt float64, init []float64) (*denseTransient, error) {
	a := m.G.ToDense()
	cdt := make([]float64, m.NumNodes)
	for i := range cdt {
		cdt[i] = m.C[i] / dt
		a.Add(i, i, cdt[i])
	}
	lu, err := linalg.Factor(a)
	if err != nil {
		return nil, err
	}
	rise := make([]float64, m.NumNodes)
	for i := range rise {
		rise[i] = init[i] - m.Params.AmbientC
	}
	return &denseTransient{m: m, lu: lu, cdt: cdt, rise: rise}, nil
}

func (d *denseTransient) step(blockPower []float64) ([]float64, error) {
	pn, err := d.m.ExpandPower(blockPower)
	if err != nil {
		return nil, err
	}
	for i := range pn {
		pn[i] += d.cdt[i] * d.rise[i]
	}
	if err := d.lu.Solve(d.rise, pn); err != nil {
		return nil, err
	}
	out := make([]float64, len(d.rise))
	for i, r := range d.rise {
		out[i] = r + d.m.Params.AmbientC
	}
	return out, nil
}

// TestSteadyStateSparseMatchesDense cross-validates the production
// sparse steady-state path (cached and private factorizations) against
// the dense LU reference on every experiment's block model and on grid
// models, within 1e-8.
func TestSteadyStateSparseMatchesDense(t *testing.T) {
	for name, m := range solverModels(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				p := randomPower(m, seed)
				dense, err := denseSteadyState(m, p)
				if err != nil {
					t.Fatal(err)
				}
				for _, kind := range []SolverKind{SolverCached, SolverSparse} {
					got, err := m.SteadyStateWith(p, kind)
					if err != nil {
						t.Fatalf("%v: %v", kind, err)
					}
					for i := range got {
						if d := math.Abs(got[i] - dense[i]); d > 1e-8 {
							t.Fatalf("%v node %d: sparse %.12f dense %.12f (|Δ|=%.3e)", kind, i, got[i], dense[i], d)
						}
					}
				}
			}
		})
	}
}

// TestTransientSparseMatchesDense steps the production implicit-Euler
// integrator and the dense reference from the same initial condition
// and demands node-for-node agreement within 1e-8 over a power step
// response.
func TestTransientSparseMatchesDense(t *testing.T) {
	for name, m := range solverModels(t) {
		t.Run(name, func(t *testing.T) {
			p := randomPower(m, 42)
			init := m.UniformInit(m.Params.AmbientC + 5)
			trS, err := m.NewTransient(0.1, init)
			if err != nil {
				t.Fatal(err)
			}
			trD, err := newDenseTransient(m, 0.1, init)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 50; step++ {
				if step == 25 { // power step halfway through
					for i := range p {
						p[i] *= 0.3
					}
				}
				ts, err := trS.Step(p)
				if err != nil {
					t.Fatal(err)
				}
				td, err := trD.step(p)
				if err != nil {
					t.Fatal(err)
				}
				for i := range ts {
					if d := math.Abs(ts[i] - td[i]); d > 1e-8 {
						t.Fatalf("step %d node %d: sparse %.12f dense %.12f (|Δ|=%.3e)", step, i, ts[i], td[i], d)
					}
				}
			}
		})
	}
}

// TestFactorCacheSharing verifies that two independently built models of
// the same stack geometry and parameters share one factorization, that a
// different stack does not, and that concurrent first access factors
// exactly once.
func TestFactorCacheSharing(t *testing.T) {
	ResetFactorCache()
	t.Cleanup(ResetFactorCache)

	build := func(e floorplan.Experiment) *Model {
		m, err := NewBlockModel(floorplan.MustBuild(e), DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := build(floorplan.EXP2), build(floorplan.EXP2)
	p := randomPower(m1, 5)
	if _, err := m1.SteadyState(p); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.SteadyState(p); err != nil {
		t.Fatal(err)
	}
	entries, hits, misses := FactorCacheStats()
	if entries != 1 || misses != 1 || hits != 1 {
		t.Fatalf("same-geometry models: entries=%d hits=%d misses=%d, want 1/1/1", entries, hits, misses)
	}

	// A different experiment must key a different factorization.
	m3 := build(floorplan.EXP3)
	if _, err := m3.SteadyState(randomPower(m3, 6)); err != nil {
		t.Fatal(err)
	}
	if entries, _, _ = FactorCacheStats(); entries != 2 {
		t.Fatalf("different geometry reused a cache entry: entries=%d", entries)
	}

	// Transient factors key on dt as well.
	if _, err := m1.NewTransient(0.1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.NewTransient(0.05, nil); err != nil {
		t.Fatal(err)
	}
	if entries, _, _ = FactorCacheStats(); entries != 4 {
		t.Fatalf("transient dt keys: entries=%d, want 4", entries)
	}

	// Concurrent first access to a fresh key factors once.
	ResetFactorCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := build(floorplan.EXP4).SteadyState(p[:0:0]); err == nil {
				t.Error("expected power-length error") // wrong-length power: solve path untouched
			}
			if _, err := build(floorplan.EXP4).NewTransient(0.1, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if entries, _, misses = FactorCacheStats(); entries != 1 || misses != 1 {
		t.Fatalf("concurrent access: entries=%d misses=%d, want 1/1", entries, misses)
	}
}

// TestSolverKindRoundTrip pins the kind names and that SolverCached —
// the only wire value — survives a JSON round trip.
func TestSolverKindRoundTrip(t *testing.T) {
	for k, want := range map[SolverKind]string{SolverCached: "cached", SolverSparse: "sparse", SolverKind(7): "SolverKind(7)"} {
		if got := k.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(k), got, want)
		}
	}
	b, err := json.Marshal(SolverCached)
	if err != nil {
		t.Fatal(err)
	}
	var got SolverKind = SolverSparse
	if err := json.Unmarshal(b, &got); err != nil || got != SolverCached {
		t.Fatalf("round trip of %s: got %v err %v", b, got, err)
	}
}

// TestFactorCacheBounded pins the shared-cache eviction bound: a
// server fed ever-new thermal systems (client-chosen grid dims or
// resistivities) must not pin factorizations without limit.
func TestFactorCacheBounded(t *testing.T) {
	ResetFactorCache()
	defer ResetFactorCache()
	for i := 0; i < maxSharedFactorEntries+20; i++ {
		key := fmt.Sprintf("bound-test-%d", i)
		if _, err := sharedFactors.get(key, func() (*linalg.Cholesky, error) {
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	entries, _, misses := FactorCacheStats()
	if entries > maxSharedFactorEntries {
		t.Fatalf("cache holds %d entries, bound is %d", entries, maxSharedFactorEntries)
	}
	if misses != int64(maxSharedFactorEntries+20) {
		t.Fatalf("factored %d systems, want %d", misses, maxSharedFactorEntries+20)
	}
}

// TestSolverKindJSON pins the wire format the dtmserved sweep API
// uses: "cached" (and the empty default) is the only accepted value,
// and the retired "sparse"/"dense" axes fail with a typed error.
func TestSolverKindJSON(t *testing.T) {
	b, err := json.Marshal(SolverCached)
	if err != nil || string(b) != `"cached"` {
		t.Fatalf("marshal cached = %s err %v, want \"cached\"", b, err)
	}
	for _, in := range []string{`"cached"`, `""`} {
		k := SolverSparse
		if err := json.Unmarshal([]byte(in), &k); err != nil || k != SolverCached {
			t.Errorf("unmarshal %s: got %v err %v", in, k, err)
		}
	}
	for _, name := range []string{"sparse", "dense", "nope"} {
		var k SolverKind
		err := json.Unmarshal([]byte(fmt.Sprintf("%q", name)), &k)
		var kerr *SolverKindError
		if !errors.As(err, &kerr) || kerr.Name != name {
			t.Errorf("unmarshal %q: got %v, want *SolverKindError", name, err)
		}
	}
	var k SolverKind
	if err := json.Unmarshal([]byte(`7`), &k); err == nil {
		t.Error("unmarshal accepted a bare number")
	}
	for _, bad := range []SolverKind{SolverSparse, SolverKind(42)} {
		if _, err := json.Marshal(bad); err == nil {
			t.Errorf("marshal accepted %v", bad)
		}
	}
}

// TestGridMinDegreeOrderingPinned pins the minimum-degree permutation
// of the EXP-1 and EXP-3 16×16 transient systems (C/dt + G) to the
// digests the map-based ordering produced before MinDegree moved to
// neighbour slices. Grid-mode canonical streams depend on this exact
// permutation, so any change to it is a change of results.
func TestGridMinDegreeOrderingPinned(t *testing.T) {
	cases := []struct {
		e      floorplan.Experiment
		n, nnz int
		digest string
	}{
		{floorplan.EXP1, 778, 10097, "527f693d3a0add01da4c61065af63ac12ee472bc22f275bec9fa178f7106138f"},
		{floorplan.EXP3, 1290, 30076, "812b1a0088b51ae75adebde6c791ad150fe77784f6407ee3b65aeeb5803ce924"},
	}
	for _, c := range cases {
		m, err := NewGridModel(floorplan.MustBuild(c.e), DefaultParams(), 16, 16)
		if err != nil {
			t.Fatal(err)
		}
		cdt := make([]float64, m.NumNodes)
		for i := range cdt {
			cdt[i] = m.C[i] / 0.1
		}
		a := m.G.AddDiag(cdt)
		h := sha256.New()
		var buf [8]byte
		for _, p := range linalg.MinDegree(a) {
			binary.LittleEndian.PutUint64(buf[:], uint64(p))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); a.N != c.n || got != c.digest {
			t.Errorf("%v: n=%d ordering %s, want n=%d ordering %s", c.e, a.N, got, c.n, c.digest)
		}
		f, err := linalg.FactorCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		if f.NNZ() != c.nnz {
			t.Errorf("%v: nnz(L)=%d, want %d", c.e, f.NNZ(), c.nnz)
		}
	}
}
