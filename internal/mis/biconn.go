package mis

import (
	"time"

	"repro/internal/biconn"
	"repro/internal/graph"
	"repro/internal/par"
)

// MISBiconn is an extension beyond the paper's three decompositions
// (Hochbaum's biconnected-component approach from the related work): an
// MIS of the subgraph induced by non-articulation vertices — the blocks
// minus their cut vertices, which are mutually non-adjacent across blocks
// — followed by the general solver on the reduced remainder.
func MISBiconn(g *graph.Graph, solver Solver) (*IndepSet, Report) {
	rep := Report{Strategy: "MIS-Biconn"}
	decompStart := time.Now()
	bc := biconn.Blocks(g)
	rep.Decomp = time.Since(decompStart)

	start := time.Now()
	n := g.NumVertices()
	member := make([]bool, n)
	par.For(n, func(i int) { member[i] = !bc.IsArticulation[i] })
	return twoPhase(rep, g, start, "solve/masked", member, solver, solver)
}
