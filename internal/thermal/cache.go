package thermal

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/linalg"
)

// SolverKind selects how a model obtains the sparse factorization
// behind its steady-state and transient solves.
type SolverKind int

const (
	// SolverCached factors the sparse conductance system once per unique
	// (stack geometry, parameters, time step) and shares the
	// factorization process-wide. This is the only path a simulation
	// takes: a policy x floorplan x benchmark sweep runs hundreds of
	// simulations over the same four stacks, and every one of them
	// reuses the same handful of factorizations. Entries are retained
	// for the life of the process (see ResetFactorCache), so callers
	// that solve each geometry exactly once — e.g. a search over
	// candidate floorplans — should use SolverSparse instead of filling
	// the cache with single-use entries.
	SolverCached SolverKind = iota
	// SolverSparse factors the same sparse system privately, without
	// consulting the cache (one-shot floorplan candidates,
	// cache-behaviour tests). It is not a wire value.
	SolverSparse
)

// String returns the kind's name ("cached", "sparse").
func (k SolverKind) String() string {
	switch k {
	case SolverCached:
		return "cached"
	case SolverSparse:
		return "sparse"
	}
	return fmt.Sprintf("SolverKind(%d)", int(k))
}

// SolverKindError reports a solver name the wire format does not
// accept. Only "cached" (or an empty string, its default) is a valid
// wire value; the retired "sparse" and "dense" sweep axes and any
// unknown name are rejected with this error.
type SolverKindError struct {
	Name string
}

// Error names the rejected solver kind and the one accepted value.
func (e *SolverKindError) Error() string {
	return fmt.Sprintf("thermal: unsupported solver kind %q (only \"cached\" is accepted)", e.Name)
}

// MarshalJSON encodes SolverCached as "cached", the only solver value
// wire formats (sweep specs, jobs and records on the dtmserved API)
// carry.
func (k SolverKind) MarshalJSON() ([]byte, error) {
	if k != SolverCached {
		return nil, fmt.Errorf("thermal: cannot marshal %s: only cached is a wire value", k)
	}
	return []byte(`"cached"`), nil
}

// UnmarshalJSON accepts "cached" and the empty string (the default);
// every other name fails with a *SolverKindError.
func (k *SolverKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("thermal: solver kind must be a JSON string: %w", err)
	}
	if s != "cached" && s != "" {
		return &SolverKindError{Name: s}
	}
	*k = SolverCached
	return nil
}

// factorCache shares sparse factorizations across models and goroutines.
// Keys are content fingerprints of the factored matrix, so two Model
// instances built independently from the same stack geometry and
// parameters (as the sweep worker pool does) hit the same entry. Each
// entry factors exactly once even under concurrent first access.
type factorCache struct {
	entries sync.Map // string -> *factorEntry
	count   atomic.Int64
	hits    atomic.Int64
	misses  atomic.Int64
}

type factorEntry struct {
	once sync.Once
	chol *linalg.Cholesky
	err  error
}

// maxSharedFactorEntries bounds the process-wide cache. A sweep over
// every shipped scenario (six stacks, block + grid modes, steady-state
// + transient systems) touches a few dozen entries, so the bound never
// binds for experiment workloads; it exists for long-running servers,
// where client-chosen parameters (grid dimensions, joint resistivity)
// would otherwise pin an unbounded number of factorizations forever.
// Eviction is correctness-neutral: a dropped system refactors on the
// next use, and holders of the evicted *Cholesky keep using it.
const maxSharedFactorEntries = 64

var sharedFactors factorCache

// get returns the factorization for key, building it at most once.
func (c *factorCache) get(key string, build func() (*linalg.Cholesky, error)) (*linalg.Cholesky, error) {
	e, loaded := c.entries.LoadOrStore(key, &factorEntry{})
	entry := e.(*factorEntry)
	if !loaded && c.count.Add(1) > maxSharedFactorEntries {
		// Evict one arbitrary other entry to make room. Concurrent
		// over-inserts may briefly overshoot the bound by the number of
		// racing goroutines; each evicts one entry, so the size still
		// converges back under the cap. LoadAndDelete keeps the counter
		// honest when two evictors race to the same victim: only the
		// one that actually removed it decrements, the other walks on
		// to the next candidate.
		c.entries.Range(func(k, _ any) bool {
			if k.(string) == key {
				return true
			}
			if _, ok := c.entries.LoadAndDelete(k); ok {
				c.count.Add(-1)
				return false
			}
			return true
		})
	}
	entry.once.Do(func() {
		c.misses.Add(1)
		entry.chol, entry.err = build()
	})
	if loaded {
		c.hits.Add(1)
	}
	return entry.chol, entry.err
}

// FactorCacheStats reports the shared factorization cache counters:
// entries currently cached, lookup hits, and factorizations performed.
func FactorCacheStats() (entries int, hits, misses int64) {
	sharedFactors.entries.Range(func(_, _ any) bool {
		entries++
		return true
	})
	return entries, sharedFactors.hits.Load(), sharedFactors.misses.Load()
}

// ResetFactorCache drops every cached factorization and zeroes the
// counters (tests and cold-path benchmarks).
func ResetFactorCache() {
	sharedFactors.entries.Range(func(k, _ any) bool {
		sharedFactors.entries.Delete(k)
		return true
	})
	sharedFactors.count.Store(0)
	sharedFactors.hits.Store(0)
	sharedFactors.misses.Store(0)
}

// fingerprint returns a content hash of the model's conductance system —
// matrix structure, values, and capacitances — which identifies the
// stack geometry plus thermal parameters exactly: any change to either
// changes some conductance or capacitance and therefore the key.
func (m *Model) fingerprint() string {
	m.fpOnce.Do(func() {
		h := sha256.New()
		var buf [8]byte
		writeInt := func(v int) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		writeFloat := func(v float64) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		writeInt(m.G.N)
		for _, p := range m.G.RowPtr {
			writeInt(p)
		}
		for _, c := range m.G.Col {
			writeInt(c)
		}
		for _, v := range m.G.Val {
			writeFloat(v)
		}
		for _, c := range m.C {
			writeFloat(c)
		}
		m.fp = string(h.Sum(nil))
	})
	return m.fp
}

// steadyFactor returns the sparse factorization of G, shared through the
// cache when kind is SolverCached.
func (m *Model) steadyFactor(kind SolverKind) (*linalg.Cholesky, error) {
	if kind == SolverSparse {
		return linalg.FactorCholesky(m.G)
	}
	return sharedFactors.get(m.fingerprint(), func() (*linalg.Cholesky, error) {
		return linalg.FactorCholesky(m.G)
	})
}

// transientFactor returns the sparse factorization of C/dt + G for the
// given step, shared through the cache when kind is SolverCached.
func (m *Model) transientFactor(dt float64, kind SolverKind) (*linalg.Cholesky, error) {
	build := func() (*linalg.Cholesky, error) {
		cdt := make([]float64, m.NumNodes)
		for i := range cdt {
			cdt[i] = m.C[i] / dt
		}
		return linalg.FactorCholesky(m.G.AddDiag(cdt))
	}
	if kind == SolverSparse {
		return build()
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(dt))
	key := m.fingerprint() + "|dt|" + string(buf[:])
	return sharedFactors.get(key, build)
}
