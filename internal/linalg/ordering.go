package linalg

// MinDegree computes a minimum-degree fill-reducing ordering of the
// symmetric matrix s, returning perm with perm[new] = old. At each step
// the vertex of smallest current degree is eliminated and its neighbours
// are joined into a clique, simulating the fill of sparse Gaussian
// elimination.
//
// Minimum degree handles the hub topology of thermal networks — a
// handful of package nodes (spreader centre/periphery, sink) coupled to
// every bottom-layer cell — far better than profile orderings like RCM:
// hubs keep a high degree until the very end, so the sparse bulk of the
// grid is eliminated first and the dense-ish clique that remains is only
// a few nodes wide. This is the default ordering for FactorCholesky.
//
// The ordering is a pure function of s's sparsity pattern: the heap
// orders (degree, vertex) totally, with degree ties going to the higher
// vertex id, so the order in which neighbour lists happen to be stored
// never reaches the elimination order and every process factors a
// given matrix identically. (Of the two id tie-breaks, the higher id
// leaves less fill on the 16×16 grid models of the paper's stacks.)
//
// The elimination graph is held as per-vertex neighbour slices with a
// marker array for membership tests, so eliminating v costs
// O(Σ_{u∈adj(v)} (deg(u) + deg(v))) with no hashing.
func MinDegree(s *Sparse) []int {
	n := s.N
	// mark[u] == stamp records membership of u in the list being built
	// or scanned; stamps only grow, so the array is never cleared.
	mark := make([]int, n)
	stamp := 0
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			if j := s.Col[k]; j != i {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	// Symmetrizing lists both directions of every stored entry; drop
	// the duplicates so a list's length is the vertex degree.
	for i, nb := range adj {
		stamp++
		m := 0
		for _, j := range nb {
			if mark[j] != stamp {
				mark[j] = stamp
				nb[m] = j
				m++
			}
		}
		adj[i] = nb[:m]
	}

	// Lazy binary min-heap of (degree, vertex), ordered by degree, then
	// descending vertex id; stale entries are skipped when their recorded
	// degree no longer matches.
	type hnode struct{ deg, v int }
	less := func(a, b hnode) bool { return a.deg < b.deg || (a.deg == b.deg && a.v > b.v) }
	heap := make([]hnode, 0, 2*n)
	push := func(h hnode) {
		heap = append(heap, h)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() hnode {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			m := i
			if l < last && less(heap[l], heap[m]) {
				m = l
			}
			if r < last && less(heap[r], heap[m]) {
				m = r
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return top
	}

	for v := 0; v < n; v++ {
		push(hnode{len(adj[v]), v})
	}
	perm := make([]int, 0, n)
	eliminated := make([]bool, n)
	for len(perm) < n {
		h := pop()
		if eliminated[h.v] || h.deg != len(adj[h.v]) {
			continue // stale entry
		}
		v := h.v
		eliminated[v] = true
		perm = append(perm, v)
		nbrs := adj[v]
		// Join v's neighbours into a clique: each u drops v from its
		// list and appends the neighbours it is not yet adjacent to.
		// Every u updates only its own list, so each new edge is
		// recorded once from each end.
		for _, u := range nbrs {
			stamp++
			mark[u] = stamp
			nu := adj[u]
			m := 0
			for _, w := range nu {
				if w != v {
					mark[w] = stamp
					nu[m] = w
					m++
				}
			}
			nu = nu[:m]
			for _, w := range nbrs {
				if mark[w] != stamp {
					nu = append(nu, w)
				}
			}
			adj[u] = nu
		}
		adj[v] = nil
		for _, u := range nbrs {
			push(hnode{len(adj[u]), u})
		}
	}
	return perm
}
