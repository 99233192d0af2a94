package linalg

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// minDegreeMap is the map-based minimum-degree ordering MinDegree
// replaced, kept as the test oracle: per-vertex adjacency sets, the
// same lazy heap over (degree, descending vertex id). Because that
// order is total, neither map iteration order nor the slice layout of
// MinDegree can reach the permutation, so the two must agree exactly.
func minDegreeMap(s *Sparse) []int {
	n := s.N
	adj := make([]map[int]struct{}, n)
	for i := 0; i < n; i++ {
		adj[i] = make(map[int]struct{})
	}
	for i := 0; i < n; i++ {
		for k := s.RowPtr[i]; k < s.RowPtr[i+1]; k++ {
			if j := s.Col[k]; j != i {
				adj[i][j] = struct{}{}
				adj[j][i] = struct{}{}
			}
		}
	}
	type hnode struct{ deg, v int }
	less := func(a, b hnode) bool { return a.deg < b.deg || (a.deg == b.deg && a.v > b.v) }
	var heap []hnode
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
			continue
		}
		v := h.v
		eliminated[v] = true
		perm = append(perm, v)
		nbrs := make([]int, 0, len(adj[v]))
		for u := range adj[v] {
			nbrs = append(nbrs, u)
		}
		for _, u := range nbrs {
			delete(adj[u], v)
		}
		for i, u := range nbrs {
			for _, w := range nbrs[i+1:] {
				adj[u][w] = struct{}{}
				adj[w][u] = struct{}{}
			}
		}
		adj[v] = nil
		for _, u := range nbrs {
			push(hnode{len(adj[u]), u})
		}
	}
	return perm
}

// hubGrid builds the hub topology of TestMinDegreeBoundsHubFill: a
// rows×cols grid whose cells all couple to a few hub nodes, the shape
// of a thermal network's package coupling.
func hubGrid(rows, cols, hubs int) *Sparse {
	n := rows*cols + hubs
	sb := NewSparseBuilder(n)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				sb.StampConductance(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				sb.StampConductance(id(r, c), id(r+1, c), 1)
			}
			for h := 0; h < hubs; h++ {
				sb.StampConductance(id(r, c), rows*cols+h, 0.5)
			}
		}
	}
	sb.StampGroundConductance(rows*cols, 1)
	return sb.Build()
}

// TestMinDegreeMatchesMapOracle pins the slice-based MinDegree to the
// map-based ordering it replaced, permutation for permutation, on grid
// Laplacians, random SPD systems and the hub graph. (The thermal
// package pins the EXP-1/EXP-3 grid-model orderings the same way.)
func TestMinDegreeMatchesMapOracle(t *testing.T) {
	systems := map[string]*Sparse{"hub-24x24+5": hubGrid(24, 24, 5)}
	for _, d := range []int{8, 12, 16, 24, 32} {
		systems[fmt.Sprintf("grid-%dx%d", d, d)] = gridLaplacian(d, d)
	}
	rng := rand.New(rand.NewSource(31))
	for i, c := range []struct{ n, extra int }{{9, 0}, {40, 30}, {120, 200}, {250, 400}, {400, 1200}} {
		systems[fmt.Sprintf("rand-%d", i)] = randSPDSystem(rng, c.n, c.extra)
	}
	for name, s := range systems {
		if got, want := MinDegree(s), minDegreeMap(s); !slices.Equal(got, want) {
			t.Errorf("%s: MinDegree differs from the map oracle", name)
		}
	}
}
