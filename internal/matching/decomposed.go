package matching

import (
	"time"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// mergeSub transfers a matching computed on a subgraph into the global mate
// array through the subgraph's local→global map.
func mergeSub(global []int32, sub *graph.Sub, local *Matching) {
	par.For(len(local.Mate), func(j int) {
		w := local.Mate[j]
		if w != Unmatched {
			global[sub.ToGlobal[j]] = sub.ToGlobal[w]
		}
	})
}

// solveOnUnmatched induces sub on its vertices still unmatched in global,
// runs mm there, and merges the result back. Returns the inner rounds.
// This realizes the recurring pseudocode step "V' ← unmatched vertices in
// G_x using M; M' ← MM(G_x[V'])".
func solveOnUnmatched(global []int32, sub *graph.Sub, mm Algorithm) int {
	member := make([]bool, sub.NumVertices())
	par.For(len(member), func(j int) {
		member[j] = global[sub.ToGlobal[j]] == Unmatched
	})
	restricted := graph.InducedSubgraph(sub.G, member)
	// Compose the two mapping levels so merge lands on global ids.
	composed := &graph.Sub{G: restricted.G, ToGlobal: make([]int32, restricted.NumVertices())}
	par.For(restricted.NumVertices(), func(j int) {
		composed.ToGlobal[j] = sub.ToGlobal[restricted.ToGlobal[j]]
	})
	local, st := mm(composed.G)
	mergeSub(global, composed, local)
	if trace.Enabled() {
		trace.Add("rounds", int64(st.Rounds))
		trace.Add("matched", st.Matched)
	}
	return st.Rounds
}

// edgeSplit is a decomposition's phase-1 classification of the edges:
// first selects the phase-1 edges and rest, its complement, the phase-2
// edges. rest is spelled out rather than derived by negating first
// because the subgraph builders call it once per arc. parts is the part
// count the decomp span reports.
type edgeSplit struct {
	first, rest func(u, v int32) bool
	parts       int
}

// byLabel is the split of the label-based decompositions: phase 1 takes
// the edges inside a part, phase 2 the edges between parts.
func byLabel(label []int32, parts int) edgeSplit {
	return edgeSplit{
		first: func(u, v int32) bool { return label[u] == label[v] },
		rest:  func(u, v int32) bool { return label[u] != label[v] },
		parts: parts,
	}
}

// twoPhase is the body every decomposed MM algorithm shares (Algorithms
// 4–6 and the MPX analogue). split runs inside the timed decomposition;
// phase 1 matches G restricted to the first edges — it keeps global
// vertex ids, so the parallel subroutine solves its components (the
// parts) simultaneously — and phase 2 matches the rest, restricted to
// still-unmatched vertices. phase1 and phase2 name the two solve spans.
func twoPhase(g *graph.Graph, strategy, phase1, phase2 string, mm Algorithm, split func() edgeSplit) (*Matching, Report) {
	rep := Report{Strategy: strategy}
	dsp := trace.Begin("decomp")
	decompStart := time.Now()
	es := split()
	g1 := graph.RemoveEdges(g, es.first)
	rest := graph.EdgeInducedSubgraph(g, es.rest)
	rep.Decomp = time.Since(decompStart)
	if trace.Enabled() {
		dsp.Add("parts", int64(es.parts))
		dsp.Add("cross_edges", rest.G.NumEdges())
	}
	dsp.End()

	start := time.Now()
	m := NewMatching(g.NumVertices())
	sp := trace.Begin(phase1)
	m1, st := mm(g1)
	sp.Add("rounds", int64(st.Rounds))
	sp.Add("matched", st.Matched)
	sp.End()
	rep.Rounds += st.Rounds
	par.Copy(m.Mate, m1.Mate)
	sp = trace.Begin(phase2)
	rep.Rounds += solveOnUnmatched(m.Mate, rest, mm)
	sp.End()
	rep.Solve = time.Since(start)
	return m, rep
}

// MMBridge is the paper's Algorithm 4: find the bridges, match the
// 2-edge-connected components G_c = G − B, then augment with a matching on
// the bridges induced by still-unmatched bridge vertices.
func MMBridge(g *graph.Graph, mm Algorithm) (*Matching, Report) {
	return twoPhase(g, "MM-Bridge", "solve/parts", "solve/cross", mm, func() edgeSplit {
		bi := decomp.FindBridges(g)
		return edgeSplit{func(u, v int32) bool { return !bi.IsBridge(u, v) }, bi.IsBridge, 1}
	})
}

// MMRand is the paper's Algorithm 5: random k-way decomposition, one
// matching call on G_IS = ∪ᵢ G[Vᵢ] (Algorithm 5 line 2 takes the union of
// the induced subgraphs), then the cross-edge graph G_{k+1} restricted to
// unmatched vertices. The paper uses k = 10 on the CPU and k = 4 on the
// GPU, raising k toward the average degree on very dense instances.
func MMRand(g *graph.Graph, k int, seed uint64, mm Algorithm) (*Matching, Report) {
	return twoPhase(g, "MM-Rand", "solve/parts", "solve/cross", mm, func() edgeSplit {
		return byLabel(decomp.RandLabels(g.NumVertices(), k, seed), k)
	})
}

// MMMPX is the MPX analogue of Algorithm 5 (an extension beyond the
// paper): grow exponential-shift balls, match the union of the balls
// G_IS = ∪ᵢ G[Bᵢ], then the inter-ball graph restricted to still-unmatched
// vertices. Where RAND fixes the part count k, MPX fixes the rate beta and
// the ball count falls out of the shifts.
func MMMPX(g *graph.Graph, beta float64, seed uint64, mm Algorithm) (*Matching, Report) {
	return twoPhase(g, "MM-MPX", "solve/parts", "solve/cross", mm, func() edgeSplit {
		info := decomp.MPXGrow(g, beta, seed)
		return byLabel(info.Center, info.Balls)
	})
}

// MMDegk is the paper's Algorithm 6: degree-k decomposition (k = 2 in the
// paper), match the high-degree subgraph G_H first, then G_L ∪ G_C (every
// edge with a low-degree endpoint) restricted to unmatched vertices.
func MMDegk(g *graph.Graph, k int, mm Algorithm) (*Matching, Report) {
	return twoPhase(g, "MM-Degk", "solve/G_H", "solve/G_LC", mm, func() edgeSplit {
		low := decomp.LowDegree(g, k)
		return edgeSplit{
			first: func(u, v int32) bool { return !low[u] && !low[v] },
			rest:  func(u, v int32) bool { return low[u] || low[v] },
			parts: 2,
		}
	})
}
