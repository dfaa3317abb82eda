package core

import (
	"testing"

	"repro/internal/decomp"
	"repro/internal/graph"
)

// allGraphsOn enumerates every simple undirected graph on n vertices
// (2^(n·(n−1)/2) of them) and hands each to fn.
func allGraphsOn(n int, fn func(mask uint64, g *graph.Graph)) {
	type pair struct{ u, v int32 }
	var pairs []pair
	for u := int32(0); u < int32(n); u++ {
		for v := u + 1; v < int32(n); v++ {
			pairs = append(pairs, pair{u, v})
		}
	}
	total := uint64(1) << uint(len(pairs))
	for mask := uint64(0); mask < total; mask++ {
		b := graph.NewBuilder(n)
		for i, p := range pairs {
			if mask&(1<<uint(i)) != 0 {
				b.AddEdge(p.u, p.v)
			}
		}
		fn(mask, b.Build())
	}
}

// TestExhaustiveAllSolversFiveVertices runs every problem × strategy ×
// architecture over every one of the 1024 graphs on 5 vertices and
// verifies each solution — the strongest correctness net in the suite.
func TestExhaustiveAllSolversFiveVertices(t *testing.T) {
	strategies := []Strategy{StrategyBaseline, StrategyBridge, StrategyRand, StrategyDegk}
	problems := []Problem{ProblemMM, ProblemColor, ProblemMIS}
	archs := []Arch{ArchCPU, ArchGPU}
	allGraphsOn(5, func(mask uint64, g *graph.Graph) {
		for _, p := range problems {
			for _, s := range strategies {
				for _, a := range archs {
					res, err := Solve(g, p, Options{Strategy: s, Arch: a, Seed: 3, RandParts: 2})
					if err != nil {
						t.Fatalf("mask %#x %v/%v/%v: %v", mask, p, s, a, err)
					}
					if err := Verify(g, res); err != nil {
						t.Fatalf("mask %#x %v/%v/%v: %v", mask, p, s, a, err)
					}
				}
			}
		}
	})
}

// TestExhaustiveDecompositionsFiveVertices checks the edge-conservation
// invariant and the bridge oracle on every 5-vertex graph.
func TestExhaustiveDecompositionsFiveVertices(t *testing.T) {
	allGraphsOn(5, func(mask uint64, g *graph.Graph) {
		br := decomp.Bridge(g)
		if br.PartEdges()+br.CrossEdges() != g.NumEdges() {
			t.Fatalf("mask %#x: BRIDGE edge conservation", mask)
		}
		want := graph.Bridges(g)
		if len(br.Bridges) != len(want) {
			t.Fatalf("mask %#x: %d bridges, oracle %d", mask, len(br.Bridges), len(want))
		}
		rd := decomp.Rand(g, 3, 1)
		if rd.PartEdges()+rd.CrossEdges() != g.NumEdges() {
			t.Fatalf("mask %#x: RAND edge conservation", mask)
		}
		dk := decomp.Degk(g, 2)
		if dk.PartEdges()+dk.CrossEdges() != g.NumEdges() {
			t.Fatalf("mask %#x: DEGk edge conservation", mask)
		}
		if d := dk.Parts[decomp.DegkLow].G.MaxDegree(); d > 2 {
			t.Fatalf("mask %#x: G_L max degree %d", mask, d)
		}
	})
}

// TestExhaustiveDecompositionsSixVertices widens the decomposition
// invariant check to all 32,768 graphs on 6 vertices. Guarded by -short.
func TestExhaustiveDecompositionsSixVertices(t *testing.T) {
	if testing.Short() {
		t.Skip("six-vertex enumeration skipped in -short mode")
	}
	allGraphsOn(6, func(mask uint64, g *graph.Graph) {
		br := decomp.Bridge(g)
		if br.PartEdges()+br.CrossEdges() != g.NumEdges() {
			t.Fatalf("mask %#x: BRIDGE edge conservation", mask)
		}
		if len(br.Bridges) != len(graph.Bridges(g)) {
			t.Fatalf("mask %#x: bridge count vs oracle", mask)
		}
		dk := decomp.Degk(g, 2)
		if dk.PartEdges()+dk.CrossEdges() != g.NumEdges() {
			t.Fatalf("mask %#x: DEGk edge conservation", mask)
		}
	})
}
