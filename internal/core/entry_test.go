package core

import (
	"testing"

	"repro/internal/graph"
)

// solveVerified runs Solve then Verify — the sequence every caller of
// core follows — and fails the test on either error.
func solveVerified(t *testing.T, g *graph.Graph, p Problem, opt Options) *Result {
	t.Helper()
	res, err := Solve(g, p, opt)
	if err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	if err := Verify(g, res); err != nil {
		t.Fatalf("%v: %v", p, err)
	}
	return res
}

func TestSolveVerified(t *testing.T) {
	g := randomGraph(300, 1200, 3)
	for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
		res := solveVerified(t, g, p, Options{Seed: 7})
		if res.SolutionCount() == 0 {
			t.Errorf("%v: zero solution count", p)
		}
		if res.SolutionDigest() == 0 {
			t.Errorf("%v: zero digest", p)
		}
	}
	if _, err := Solve(g, Problem(9), Options{Seed: 7}); err == nil {
		t.Fatal("unknown problem accepted")
	}
}

func TestSolutionDigestDeterministic(t *testing.T) {
	g := randomGraph(400, 1600, 9)
	for _, p := range []Problem{ProblemMM, ProblemColor, ProblemMIS} {
		a := solveVerified(t, g, p, Options{Strategy: StrategyRand, Seed: 11})
		b := solveVerified(t, g, p, Options{Strategy: StrategyRand, Seed: 11})
		if a.SolutionDigest() != b.SolutionDigest() {
			t.Errorf("%v: digest differs under same seed", p)
		}
		c := solveVerified(t, g, p, Options{Strategy: StrategyRand, Seed: 12})
		// Different seeds should (overwhelmingly) give different payloads;
		// equal digests with equal payloads are fine, so only flag when the
		// solutions actually differ.
		if c.SolutionDigest() == a.SolutionDigest() && c.SolutionCount() != a.SolutionCount() {
			t.Errorf("%v: different solutions, same digest", p)
		}
	}
	if (&Result{}).SolutionDigest() != 0 || (&Result{}).SolutionCount() != 0 {
		t.Error("empty result should digest/count to 0")
	}
}

func TestNormalized(t *testing.T) {
	o := Options{}.Normalized()
	if o.RandParts != 10 || o.DegK != 2 || o.MPXBeta <= 0 {
		t.Fatalf("CPU defaults not applied: %+v", o)
	}
	og := Options{Arch: ArchGPU}.Normalized()
	if og.RandParts != 4 {
		t.Fatalf("GPU defaults not applied: %+v", og)
	}
	// Explicit values survive normalization.
	ex := Options{RandParts: 7, DegK: 3, MPXBeta: 0.5}.Normalized()
	if ex.RandParts != 7 || ex.DegK != 3 || ex.MPXBeta != 0.5 {
		t.Fatalf("explicit values clobbered: %+v", ex)
	}
}
