package mis

import (
	"time"

	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// Order controls which side a two-phase decomposition algorithm solves
// first. The paper's heuristic (OrderAuto) picks the sparser side; the
// forced orders exist for the ablation experiments.
type Order int

const (
	// OrderAuto applies the paper's average-degree heuristic.
	OrderAuto Order = iota
	// OrderPartsFirst always solves the decomposed parts side first.
	OrderPartsFirst
	// OrderCrossFirst always solves the bridge/cross side first.
	OrderCrossFirst
)

// pickFirst resolves an Order against the heuristic's verdict.
func pickFirst(ord Order, partsSparser bool) bool {
	switch ord {
	case OrderPartsFirst:
		return true
	case OrderCrossFirst:
		return false
	default:
		return partsSparser
	}
}

// avgDeg is the order heuristic's sparsity measure.
func avgDeg(edges int64, verts int64) float64 {
	if verts == 0 {
		return 0
	}
	return 2 * float64(edges) / float64(verts)
}

// maskedPhase runs solver on the subgraph of g induced by the member
// vertices, through the status mask: members start undecided, everyone
// else is temporarily out. The solver sees exactly the induced subgraph.
func maskedPhase(g *graph.Graph, set *IndepSet, member []bool, solver Solver) Stats {
	n := g.NumVertices()
	status := make([]State, n)
	nc := par.NumChunks(n)
	bufs := make([][]int32, nc)
	par.RangeIdx(n, func(w, lo, hi int) {
		var out []int32
		for i := lo; i < hi; i++ {
			if member[i] {
				out = append(out, int32(i))
			} else {
				status[i] = StateOut
			}
		}
		bufs[w] = out
	})
	var active []int32
	for _, b := range bufs {
		active = append(active, b...)
	}
	return solver(g, status, set, active)
}

// remainderPhase reduces G by the current set (the pseudocode's "remove
// vertices that are in I or have a neighbor in I"), then runs solver on
// what remains. Works purely on a fresh status mask.
func remainderPhase(g *graph.Graph, set *IndepSet, solver Solver) Stats {
	n := g.NumVertices()
	status := make([]State, n)
	par.For(n, func(i int) {
		if set.In[i] {
			status[i] = StateIn
			return
		}
		for _, w := range g.Neighbors(int32(i)) {
			if set.In[w] {
				status[i] = StateOut
				return
			}
		}
	})
	active := make([]int32, 0, n)
	nc := par.NumChunks(n)
	bufs := make([][]int32, nc)
	par.RangeIdx(n, func(w, lo, hi int) {
		var out []int32
		for i := lo; i < hi; i++ {
			if status[i] == StateUndecided {
				out = append(out, int32(i))
			}
		}
		bufs[w] = out
	})
	for _, b := range bufs {
		active = append(active, b...)
	}
	return solver(g, status, set, active)
}

// twoPhase is the tail Algorithms 10–12 share, timed from start: solve
// the subgraph of g induced by member through the status mask with first
// (under the span phase1), then the remainder reduced by that set with
// solver.
func twoPhase(rep Report, g *graph.Graph, start time.Time, phase1 string, member []bool, first, solver Solver) (*IndepSet, Report) {
	set := NewIndepSet(g.NumVertices())
	sp := trace.Begin(phase1)
	st := maskedPhase(g, set, member, first)
	sp.Add("rounds", int64(st.Rounds))
	sp.End()
	rep.Rounds += st.Rounds
	sp = trace.Begin("solve/remainder")
	st = remainderPhase(g, set, solver)
	sp.Add("rounds", int64(st.Rounds))
	sp.End()
	rep.Rounds += st.Rounds
	rep.Solve = time.Since(start)
	return set, rep
}

// orderedTwoPhase runs twoPhase on a decomposition that splits V into the
// side vertices (bridge endpoints, cross-edge endpoints) and the parts
// side: phase 1 takes the parts side when ord — or, under OrderAuto, the
// sparsity verdict partsSparser — says so, else the side vertices. Either
// way phase 1 is vertex-induced from G, so when the side vertices go
// first, every G-edge among them is respected — not only the bridges or
// cross edges — or two endpoints joined by a part edge could both enter
// the set (the paper's sketch elides this; see DESIGN.md §5).
func orderedTwoPhase(rep Report, g *graph.Graph, start time.Time, side []bool, partsSparser bool, ord Order, solver Solver) (*IndepSet, Report) {
	rep.SparserFirst = pickFirst(ord, partsSparser)
	member := make([]bool, len(side))
	par.For(len(side), func(i int) { member[i] = side[i] != rep.SparserFirst })
	return twoPhase(rep, g, start, "solve/masked", member, solver, solver)
}

// MISBridge is the paper's Algorithm 10: find the bridges, compute an MIS
// on ∪ᵢ Hᵢ (the 2-edge-connected components minus bridge endpoints) and on
// the reduced remainder. The order heuristic from §V-B1 (ord = OrderAuto)
// computes the sparser of ∪ᵢ Hᵢ and the bridge graph G_B first; the forced
// orders exist for the ablation.
func MISBridge(g *graph.Graph, solver Solver, ord Order) (*IndepSet, Report) {
	rep := Report{Strategy: "MIS-Bridge"}
	dsp := trace.Begin("decomp")
	bi := decomp.FindBridges(g)
	dsp.End()
	rep.Decomp = bi.Elapsed

	start := time.Now()
	n := g.NumVertices()
	isBridgeVtx := make([]bool, n)
	for _, e := range bi.Bridges {
		isBridgeVtx[e.U] = true
		isBridgeVtx[e.V] = true
	}
	// Sparsity of the two sides: H = G minus bridge endpoints (count its
	// edges in one parallel pass), G_B = the bridges.
	bridgeVerts := par.Count(n, func(i int) bool { return isBridgeVtx[i] })
	hEdges := par.Sum(n, func(i int) int64 {
		if isBridgeVtx[i] {
			return 0
		}
		var c int64
		for _, w := range g.Neighbors(int32(i)) {
			if !isBridgeVtx[w] {
				c++
			}
		}
		return c
	}) / 2
	partsSparser := avgDeg(hEdges, int64(n)-bridgeVerts) <= avgDeg(int64(len(bi.Bridges)), bridgeVerts)
	return orderedTwoPhase(rep, g, start, isBridgeVtx, partsSparser, ord, solver)
}

// MISRand is the paper's Algorithm 11: random k-way labeling, MIS on
// H = ∪ᵢ Hᵢ (vertices with no cross edge) or on the cross side first —
// whichever is sparser, unless ord forces the order — then on the reduced
// remainder.
func MISRand(g *graph.Graph, k int, seed uint64, solver Solver, ord Order) (*IndepSet, Report) {
	return labeled(g, "MIS-Rand", solver, ord, func() []int32 {
		return decomp.RandLabels(g.NumVertices(), k, seed)
	})
}

// MISMPX is the MPX analogue of Algorithm 11 (an extension beyond the
// paper): grow exponential-shift balls, then run the two masked phases
// over the ball labels — the vertices with no inter-ball edge and the
// reduced remainder, sparser side first unless ord forces the order.
func MISMPX(g *graph.Graph, beta float64, seed uint64, solver Solver, ord Order) (*IndepSet, Report) {
	return labeled(g, "MIS-MPX", solver, ord, func() []int32 {
		return decomp.MPXGrow(g, beta, seed).Center
	})
}

// labeled is the body of the label-based decompositions (RAND, MPX):
// label the vertices and classify the cross edges inside the timed
// decomposition, then run the ordered two phases with the cross-edge
// vertices as the side.
func labeled(g *graph.Graph, strategy string, solver Solver, ord Order, labels func() []int32) (*IndepSet, Report) {
	rep := Report{Strategy: strategy}
	dsp := trace.Begin("decomp")
	decompStart := time.Now()
	hasCross, partEdges := crossClassify(g, labels())
	rep.Decomp = time.Since(decompStart)
	dsp.End()

	start := time.Now()
	n := g.NumVertices()
	crossVerts := par.Count(n, func(i int) bool { return hasCross[i] })
	crossEdges := g.NumEdges() - partEdges
	partsSparser := avgDeg(partEdges, int64(n)) <= avgDeg(crossEdges, crossVerts)
	return orderedTwoPhase(rep, g, start, hasCross, partsSparser, ord, solver)
}

// crossClassify marks, for a per-vertex part labeling, the vertices with
// at least one cross edge, and counts the intra-part edges.
func crossClassify(g *graph.Graph, label []int32) (hasCross []bool, partEdges int64) {
	n := g.NumVertices()
	hasCross = make([]bool, n)
	cnt := par.Sum(n, func(i int) int64 {
		v := int32(i)
		var intra int64
		cross := false
		for _, w := range g.Neighbors(v) {
			if label[w] == label[v] {
				intra++
			} else {
				cross = true
			}
		}
		hasCross[i] = cross
		return intra
	})
	return hasCross, cnt / 2
}

// MISDeg2 is the paper's Algorithm 12: classify vertices by the degree-2
// threshold, run the special bounded-degree solver kp (KPSolver, standing
// in for [21]; GPU runs pass KPSolverOn(machine.Launch) so the phase's
// work is charged to the device) on the degree ≤ 2 induced subgraph, then
// the general solver on the reduced remainder.
//
// Note: the paper's prose says "an MIS I_C in G_C" but the degree bound it
// invokes ("with its degree bounded by two ... a set of paths") holds for
// G_L, the induced subgraph on degree ≤ 2 vertices — G_C's high-degree
// endpoints can have arbitrarily many cross edges. We follow the intent and
// run the bounded-degree solver on G_L (see DESIGN.md).
func MISDeg2(g *graph.Graph, solver, kp Solver) (*IndepSet, Report) {
	rep := Report{Strategy: "MIS-Deg2"}
	// The decomposition is one classification pass — "a simple
	// computation" per the paper's Figure 2 discussion.
	dsp := trace.Begin("decomp")
	decompStart := time.Now()
	low := decomp.LowDegree(g, 2)
	rep.Decomp = time.Since(decompStart)
	dsp.End()

	return twoPhase(rep, g, time.Now(), "solve/G_L", low, kp, solver)
}
