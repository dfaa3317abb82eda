package matching

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// GreedyRandom is the unmodified algorithm of Blelloch et al. [6]: random
// priorities on the edges induce a DAG, and each round the roots — edges
// with no higher-priority neighboring edge — enter the matching, with the
// dependence depth O(log² n) w.h.p. The paper's GM baseline replaces the
// random priorities with lowest-vertex-id mate selection ("we use the
// vertex numbers to help in the selection of potential mates"), which is
// what creates the vain tendency; GreedyRandom is the reference point
// without that modification.
//
// A vertex-centric implementation: each free vertex points at its
// minimum-priority incident live edge; an edge is a root when both
// endpoints point at it.
func GreedyRandom(g *graph.Graph, seed uint64) (*Matching, Stats) {
	n := g.NumVertices()
	m := NewMatching(n)
	var st Stats
	mate := m.Mate
	prop := make([]int32, n)

	prio := func(u, v int32) uint64 { return par.Hash2(seed, int64(u), int64(v)) }

	active := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if g.Degree(int32(v)) > 0 {
			active = append(active, int32(v))
		}
	}

	var matched atomic.Int64
	for len(active) > 0 {
		st.Rounds++
		// Each free vertex selects its minimum-priority live edge.
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				best := Unmatched
				var bestP uint64
				for _, w := range g.Neighbors(v) {
					if mate[w] != Unmatched {
						continue
					}
					p := prio(v, w)
					if best == Unmatched || p < bestP || (p == bestP && w < best) {
						best, bestP = w, p
					}
				}
				prop[v] = best
			}
		})
		// Roots: mutual minimum edges join the matching.
		par.Range(len(active), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := active[i]
				w := prop[v]
				if w != Unmatched && v < w && prop[w] == v {
					mate[v] = w
					mate[w] = v
					matched.Add(1)
				}
			}
		})
		active = par.Filter(active, func(v int32) bool {
			return mate[v] == Unmatched && prop[v] != Unmatched
		})
	}
	st.Matched = matched.Load()
	return m, st
}
