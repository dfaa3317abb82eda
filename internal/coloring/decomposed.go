package coloring

import (
	"time"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// twoPhase is the body Algorithms 7 and 8 and the MPX analogue share:
// decompose G, color every part with a fresh shared palette (parts never
// conflict with each other), uncolor one endpoint of each monochromatic
// edge between parts via reset, and repair those vertices against the
// whole graph. partsSpan names the parts phase's span.
func twoPhase(g *graph.Graph, strategy, partsSpan string, eng Engine,
	decompose func() *decomp.Result, reset func(color []int32, d *decomp.Result) []int32) (*Coloring, Report) {
	rep := Report{Strategy: strategy}
	dsp := trace.Begin("decomp")
	d := decompose()
	dsp.End()
	rep.Decomp = d.Elapsed

	start := time.Now()
	sp := trace.Begin(partsSpan)
	var c *Coloring
	if len(d.Parts) == 1 {
		// A single part spans V with global ids: its coloring is G's.
		var st Stats
		c, st = eng.Fresh(d.Parts[0].G)
		rep.Rounds += st.Rounds
	} else {
		c = NewColoring(g.NumVertices())
		for _, part := range d.Parts {
			local, st := eng.Fresh(part.G)
			rep.Rounds += st.Rounds
			mergeColors(c.Color, part, local)
		}
	}
	sp.Add("rounds", int64(rep.Rounds))
	sp.End()
	sp = trace.Begin("solve/repair")
	work := reset(c.Color, d)
	rep.Conflicted = int64(len(work))
	st := eng.Repair(g, c.Color, work)
	sp.Add("conflicts", rep.Conflicted)
	sp.Add("rounds", int64(st.Rounds))
	sp.End()
	rep.Rounds += st.Rounds
	rep.Solve = time.Since(start)
	return c, rep
}

// ColorBridge is the paper's Algorithm 7: color the 2-edge-connected
// components G_c independently (they share a palette and cannot conflict
// with each other), then detect conflicts across the bridges and recolor
// the conflicted vertices against G_c ∪ G_b = G.
func ColorBridge(g *graph.Graph, eng Engine) (*Coloring, Report) {
	return twoPhase(g, "COLOR-Bridge", "solve/G_c", eng,
		func() *decomp.Result { return decomp.Bridge(g) }, resetConflicts)
}

// ColorRand is the paper's Algorithm 8: color the k random induced
// subgraphs with an identical palette, collect the endpoints of
// monochromatic cross edges, and recolor them along with G_{k+1} — i.e.
// against the full graph.
func ColorRand(g *graph.Graph, k int, seed uint64, eng Engine) (*Coloring, Report) {
	return twoPhase(g, "COLOR-Rand", "solve/parts", eng,
		func() *decomp.Result { return decomp.Rand(g, k, seed) }, resetConflictsSub)
}

// ColorMPX is the MPX analogue of Algorithm 7 (an extension beyond the
// paper): grow exponential-shift balls, color their union with a shared
// palette (different balls can only conflict across inter-ball edges),
// then repair the monochromatic inter-ball endpoints against the full
// graph.
func ColorMPX(g *graph.Graph, beta float64, seed uint64, eng Engine) (*Coloring, Report) {
	return twoPhase(g, "COLOR-MPX", "solve/balls", eng,
		func() *decomp.Result { return decomp.MPX(g, beta, seed) }, resetConflictsSub)
}

// ColorDegk is the paper's Algorithm 9 (k = 2 in the paper): color the
// high-degree subgraph G_H first; the cross edges G_C cannot conflict
// because only their G_H endpoint is colored. Then color G_L with a fresh
// palette of k+1 colors above max(C_H) using a (k+1)-sized FORBIDDEN array
// — vertices in G_L have degree at most k, so the small palette always
// suffices and no recoloring against G is ever needed.
//
// The decomposition is a single degree classification ("a simple
// computation", per the paper's Figure 2 discussion): no subgraph is
// materialized. The G_H phase runs the engine's Repair with the high
// vertices as the worklist — uncolored low neighbors impose no constraints,
// so it colors exactly G_H. The G_L phase's disjoint palette likewise
// never collides with G_H colors.
func ColorDegk(g *graph.Graph, k int, eng Engine) (*Coloring, Report) {
	rep := Report{Strategy: "COLOR-Degk"}
	n := g.NumVertices()

	dsp := trace.Begin("decomp")
	decompStart := time.Now()
	low := decomp.LowDegree(g, k)
	rep.Decomp = time.Since(decompStart)
	dsp.End()

	start := time.Now()
	c := NewColoring(n)
	lowList, high := gather2(n, func(i int) bool { return low[i] })
	sp := trace.Begin("solve/G_H")
	if len(high) > 0 {
		st := eng.Repair(g, c.Color, high)
		sp.Add("rounds", int64(st.Rounds))
		rep.Rounds += st.Rounds
	}
	sp.End()
	base := c.NumColors() // palette for G_L starts above max(C_H)
	sp = trace.Begin("solve/G_L")
	if len(lowList) > 0 {
		st := boundedPalette(g, c.Color, lowList, base, k+1, eng.Exec)
		sp.Add("rounds", int64(st.Rounds))
		rep.Rounds += st.Rounds
	}
	sp.End()
	rep.Solve = time.Since(start)
	return c, rep
}

// gather2 splits [0, n) by pred into (true, false) vertex lists, in id
// order, with a single parallel pass.
func gather2(n int, pred func(i int) bool) (yes, no []int32) {
	nc := par.NumChunks(n)
	yesBufs := make([][]int32, nc)
	noBufs := make([][]int32, nc)
	par.RangeIdx(n, func(w, lo, hi int) {
		var y, nn []int32
		for i := lo; i < hi; i++ {
			if pred(i) {
				y = append(y, int32(i))
			} else {
				nn = append(nn, int32(i))
			}
		}
		yesBufs[w], noBufs[w] = y, nn
	})
	for w := 0; w < nc; w++ {
		yes = append(yes, yesBufs[w]...)
		no = append(no, noBufs[w]...)
	}
	return yes, no
}

// mergeColors transfers a subgraph coloring into the global array.
func mergeColors(global []int32, sub *graph.Sub, local *Coloring) {
	par.For(len(local.Color), func(j int) {
		global[sub.ToGlobal[j]] = local.Color[j]
	})
}

// resetConflicts uncolors the lower endpoint of every monochromatic bridge
// of d, in list order, and returns the (deduplicated) worklist of reset
// vertices. Sequential on purpose: on a chain of same-colored bridges an
// already-reset endpoint ends the conflict for later bridges, so it resets
// fewer vertices than resetConflictsSub can.
func resetConflicts(color []int32, d *decomp.Result) []int32 {
	var work []int32
	for _, e := range d.Bridges {
		if color[e.U] == color[e.V] && color[e.U] != Uncolored {
			lo := e.U
			if loses(e.V, e.U) {
				lo = e.V
			}
			if color[lo] != Uncolored {
				color[lo] = Uncolored
				work = append(work, lo)
			}
		}
	}
	return work
}

// resetConflictsSub uncolors, in parallel, every vertex that loses a
// monochromatic edge of d's cross subgraph, working in global ids through
// the Sub's mapping, and returns the reset vertices.
func resetConflictsSub(color []int32, d *decomp.Result) []int32 {
	cross := d.Cross
	n := cross.NumVertices()
	reset := make([]bool, n)
	par.For(n, func(j int) {
		v := cross.ToGlobal[j]
		cv := color[v]
		for _, lw := range cross.G.Neighbors(int32(j)) {
			w := cross.ToGlobal[lw]
			if color[w] == cv && loses(v, w) {
				reset[j] = true
				break
			}
		}
	})
	var work []int32
	for j := 0; j < n; j++ {
		if reset[j] {
			v := cross.ToGlobal[j]
			color[v] = Uncolored
			work = append(work, v)
		}
	}
	return work
}

// boundedPalette colors the work vertices of g with the palette
// [base, base+size) using a size-sized FORBIDDEN array, under the engine
// executor. Colors outside the palette (e.g. the G_H phase's) never land in
// the FORBIDDEN window, so only palette-internal conflicts matter. Correct
// whenever every work vertex has degree below size (G_L under DEGk with
// size = k+1); the window widens defensively otherwise.
func boundedPalette(g *graph.Graph, color []int32, work []int32, base int32, size int, exec func(n int, kernel func(i int))) Stats {
	maxDeg := par.Reduce(len(work), int32(0), func(i int) int32 {
		return g.Degree(work[i])
	}, func(a, b int32) int32 {
		if a > b {
			return a
		}
		return b
	})
	if int(maxDeg) >= size {
		size = int(maxDeg) + 1
	}
	var st Stats
	cand := make([]int32, g.NumVertices())

	for len(work) > 0 {
		st.Rounds++
		// Speculate: smallest palette color absent from the neighborhood.
		exec(len(work), func(i int) {
			v := work[i]
			forbidden := make([]bool, size)
			for _, w := range g.Neighbors(v) {
				if cw := color[w]; cw >= base && cw < base+int32(size) {
					forbidden[cw-base] = true
				}
			}
			cand[v] = Uncolored
			for j := 0; j < size; j++ {
				if !forbidden[j] {
					cand[v] = base + int32(j)
					break
				}
			}
		})
		exec(len(work), func(i int) { color[work[i]] = cand[work[i]] })
		// Conflicts: the lower (hashed-id) priority resets.
		exec(len(work), func(i int) {
			v := work[i]
			cv := color[v]
			for _, w := range g.Neighbors(v) {
				if color[w] == cv && loses(v, w) {
					cand[v] = Uncolored
					break
				}
			}
		})
		exec(len(work), func(i int) {
			if cand[work[i]] == Uncolored {
				color[work[i]] = Uncolored
			}
		})
		work = par.Filter(work, func(v int32) bool { return color[v] == Uncolored })
		if trace.Enabled() {
			trace.Append("frontier", int64(len(work)))
		}
	}
	return st
}
