package coloring

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// VB is the paper's multicore CPU baseline (Algorithm VB, after Deveci et
// al.): speculative vertex-based coloring with a fixed-size FORBIDDEN
// array. Every working vertex searches for the smallest valid color inside
// a window of FORBIDDEN colors; if the window is exhausted an OFFSET
// advances it. After each speculative round, conflicting vertices (the
// lower id of each monochromatic edge) are uncolored and retried.
//
// As in the paper, the FORBIDDEN window holds max(1, ⌊average degree⌋)
// colors of the graph being colored.
type VB struct{}

// NewVB returns a VB engine with the paper's default FORBIDDEN sizing.
func NewVB() *VB { return &VB{} }

// Name implements Engine.
func (vb *VB) Name() string { return "VB" }

// Exec implements Engine's executor: plain parallel loops on the CPU.
func (vb *VB) Exec(n int, kernel func(i int)) { par.For(n, kernel) }

// Fresh implements Engine.
func (vb *VB) Fresh(g *graph.Graph) (*Coloring, Stats) {
	c := NewColoring(g.NumVertices())
	work := make([]int32, g.NumVertices())
	par.Iota(work)
	st := vb.Repair(g, c.Color, work)
	return c, st
}

// Repair implements Engine.
func (vb *VB) Repair(g *graph.Graph, color []int32, work []int32) Stats {
	// The paper sizes the FORBIDDEN array at the average degree of the
	// graph being colored — here, the work vertices.
	f := 1
	if len(work) > 0 {
		total := par.Sum(len(work), func(i int) int64 {
			return int64(g.Degree(work[i]))
		})
		f = max(1, int(total/int64(len(work))))
	}
	var st Stats
	n := g.NumVertices()
	cand := make([]int32, n)

	for len(work) > 0 {
		st.Rounds++
		// Speculative assignment: smallest color absent from the (snapshot)
		// neighborhood, searched window by window with the FORBIDDEN array.
		par.Range(len(work), func(lo, hi int) {
			forbidden := make([]bool, f)
			for i := lo; i < hi; i++ {
				v := work[i]
				cand[v] = findColor(g, color, v, forbidden, 0)
			}
		})
		// Commit this round's speculation.
		par.Range(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				color[work[i]] = cand[work[i]]
			}
		})
		// Conflict detection: of each monochromatic edge, the lower
		// (hashed-id) priority resets, so the highest priority in any
		// conflict neighborhood always survives, guaranteeing progress.
		par.Range(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				v := work[i]
				cv := color[v]
				for _, w := range g.Neighbors(v) {
					if color[w] == cv && loses(v, w) {
						cand[v] = Uncolored
						break
					}
				}
			}
		})
		par.Range(len(work), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if cand[work[i]] == Uncolored {
					color[work[i]] = Uncolored
				}
			}
		})
		work = par.Filter(work, func(v int32) bool { return color[v] == Uncolored })
		if trace.Enabled() {
			trace.Append("frontier", int64(len(work)))
		}
	}
	return st
}

// findColor returns the smallest color ≥ base not used by any neighbor of
// v, scanning the palette in windows the size of the forbidden buffer.
func findColor(g *graph.Graph, color []int32, v int32, forbidden []bool, base int32) int32 {
	f := int32(len(forbidden))
	for {
		for j := range forbidden {
			forbidden[j] = false
		}
		limit := base + f
		for _, w := range g.Neighbors(v) {
			if cw := color[w]; cw >= base && cw < limit {
				forbidden[cw-base] = true
			}
		}
		for j := int32(0); j < f; j++ {
			if !forbidden[j] {
				return base + j
			}
		}
		base += f // OFFSET advance: whole window forbidden
	}
}
