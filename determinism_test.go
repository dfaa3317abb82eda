package repro

// Determinism sweep: the runtime invariant behind every measured number in
// EXPERIMENTS.md (DESIGN.md §5) is that solver outputs do not depend on the
// worker count — parallelism changes only wall clock, never results. The
// persistent pool's dynamic chunk claiming makes the *schedule*
// intentionally nondeterministic, so this sweep pins down that outputs stay
// bit-identical for worker counts {1, 2, 3, 7, GOMAXPROCS} on two dataset
// analogs, for the baseline solver and the paper's Table I winner of each
// problem.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/par"
)

var sweepWorkers = func() []int {
	ws := []int{1, 2, 3, 7}
	if m := runtime.GOMAXPROCS(0); m != 1 && m != 2 && m != 3 && m != 7 {
		ws = append(ws, m)
	}
	return ws
}()

func sweepGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{}
	for _, name := range []string{"lp1", "coAuthorsCiteseer"} {
		spec, ok := dataset.Get(name)
		if !ok {
			t.Fatalf("unknown dataset analog %q", name)
		}
		gs[name] = dataset.Load(spec, 0.1, 1)
	}
	return gs
}

// TestDeterminismSweepSolvers asserts bit-identical matching, coloring and
// MIS outputs under every sweep worker count.
func TestDeterminismSweepSolvers(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)
	graphs := sweepGraphs(t)

	type cfg struct {
		problem  core.Problem
		strategy core.Strategy
	}
	cfgs := []cfg{
		{core.ProblemMM, core.StrategyBaseline},
		{core.ProblemMM, core.StrategyRand},
		{core.ProblemColor, core.StrategyBaseline},
		{core.ProblemColor, core.StrategyDegk},
		{core.ProblemMIS, core.StrategyBaseline},
		{core.ProblemMIS, core.StrategyDegk},
		// MPX extension: exercises the frontier engine's pull path (dense
		// rounds) under every worker count, for all three problems.
		{core.ProblemMM, core.StrategyMPX},
		{core.ProblemColor, core.StrategyMPX},
		{core.ProblemMIS, core.StrategyMPX},
	}

	solve := func(g *graph.Graph, c cfg) *core.Result {
		res, err := core.Solve(g, c.problem, core.Options{Strategy: c.strategy, Seed: 5})
		if err != nil {
			t.Fatalf("%v/%v: %v", c.problem, c.strategy, err)
		}
		return res
	}

	for name, g := range graphs {
		for _, c := range cfgs {
			par.SetWorkers(1)
			ref := solve(g, c)
			for _, w := range sweepWorkers[1:] {
				par.SetWorkers(w)
				got := solve(g, c)
				label := func() string {
					return name + "/" + ref.Report.StrategyName
				}
				switch c.problem {
				case core.ProblemMM:
					for v := range ref.Matching.Mate {
						if got.Matching.Mate[v] != ref.Matching.Mate[v] {
							t.Fatalf("%s: Mate[%d] = %d with %d workers, %d with 1",
								label(), v, got.Matching.Mate[v], w, ref.Matching.Mate[v])
						}
					}
				case core.ProblemColor:
					for v := range ref.Coloring.Color {
						if got.Coloring.Color[v] != ref.Coloring.Color[v] {
							t.Fatalf("%s: Color[%d] = %d with %d workers, %d with 1",
								label(), v, got.Coloring.Color[v], w, ref.Coloring.Color[v])
						}
					}
				case core.ProblemMIS:
					for v := range ref.IndepSet.In {
						if got.IndepSet.In[v] != ref.IndepSet.In[v] {
							t.Fatalf("%s: In[%d] = %v with %d workers, %v with 1",
								label(), v, got.IndepSet.In[v], w, ref.IndepSet.In[v])
						}
					}
				}
			}
		}
	}
}

// TestDeterminismSweepConstruction asserts the CSR graph produced by the
// parallel builder (atomic degree count + parallel scatter + per-list sort)
// is identical under every sweep worker count.
func TestDeterminismSweepConstruction(t *testing.T) {
	defer par.SetWorkers(0)
	for _, name := range []string{"lp1", "coAuthorsCiteseer"} {
		spec, ok := dataset.Get(name)
		if !ok {
			t.Fatalf("unknown dataset analog %q", name)
		}
		par.SetWorkers(1)
		dataset.ClearCache()
		ref := dataset.Load(spec, 0.1, 1)
		refEdges := ref.Edges()
		for _, w := range sweepWorkers[1:] {
			par.SetWorkers(w)
			dataset.ClearCache()
			g := dataset.Load(spec, 0.1, 1)
			if g.NumVertices() != ref.NumVertices() || g.NumEdges() != ref.NumEdges() {
				t.Fatalf("%s: %d workers built |V|=%d |E|=%d, 1 worker built |V|=%d |E|=%d",
					name, w, g.NumVertices(), g.NumEdges(), ref.NumVertices(), ref.NumEdges())
			}
			edges := g.Edges()
			for i := range refEdges {
				if edges[i] != refEdges[i] {
					t.Fatalf("%s: edge %d = %v with %d workers, %v with 1",
						name, i, edges[i], w, refEdges[i])
				}
			}
		}
	}
	dataset.ClearCache()
}

// TestDeterminismSweepBinaryLoad asserts that the load path is invisible
// to the solvers: a graph served from a raw (mmap-backed where supported)
// or compressed (parallel-decoded) .scsr file produces bit-identical
// solution digests to the heap-built graph, under every sweep worker
// count — including the decode itself, which runs on the par pool.
func TestDeterminismSweepBinaryLoad(t *testing.T) {
	defer par.SetWorkers(0)
	spec, ok := dataset.Get("lp1")
	if !ok {
		t.Fatal("unknown dataset analog lp1")
	}
	par.SetWorkers(1)
	ref := dataset.Load(spec, 0.1, 1)
	dir := t.TempDir()
	paths := map[string]string{
		"raw":        dir + "/lp1-raw.scsr",
		"compressed": dir + "/lp1-comp.scsr",
	}
	if err := graph.WriteBinaryFile(paths["raw"], ref, graph.BinaryOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinaryFile(paths["compressed"], ref, graph.BinaryOptions{Compress: true}); err != nil {
		t.Fatal(err)
	}

	refRes, err := core.Solve(ref, core.ProblemMIS, core.Options{Strategy: core.StrategyDegk, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := refRes.SolutionDigest()

	for name, p := range paths {
		for _, w := range sweepWorkers {
			par.SetWorkers(w)
			bg, err := graph.OpenBinary(p)
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, w, err)
			}
			if bg.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("%s/%d workers: fingerprint %#x, want %#x",
					name, w, bg.Fingerprint(), ref.Fingerprint())
			}
			res, err := core.Solve(bg.Graph, core.ProblemMIS, core.Options{Strategy: core.StrategyDegk, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%d workers: %v", name, w, err)
			}
			if got := res.SolutionDigest(); got != want {
				t.Fatalf("%s/%d workers: solution digest %#x, heap-built graph gave %#x",
					name, w, got, want)
			}
			if err := bg.Close(); err != nil {
				t.Fatalf("%s/%d workers: close: %v", name, w, err)
			}
		}
	}
}

// goldenAnalogs are the dataset analogs (scale 0.1, seed 1) the golden
// digest table covers: one per structural class that stresses a different
// decomposition — a numerical mesh, a collaboration graph with many
// bridges, a road network (DEGk's low-degree bulk), a skewed kron graph
// (MPX and RAND's dense parts) and a random geometric graph (the
// many-round MM tail).
var goldenAnalogs = []string{"lp1", "coAuthorsCiteseer", "germany-osm", "kron-g500-logn20", "rgg-n-2-23-s0"}

// goldenDigests pins core.Result.SolutionDigest for every (analog ×
// problem × arch × strategy) cell under Seed 5, plus the forced MIS phase
// orders the AblationOrder experiment runs. The solvers are deterministic
// under (seed, options) for any worker count, so these values change only
// when an algorithm's output changes; a refactor that is meant to preserve
// behaviour must leave every entry matching. On a mismatch the test prints
// the full replacement table.
var goldenDigests = map[string]uint64{
	"coAuthorsCiteseer/COLOR/CPU/BASELINE":     0xa1029db966744b81,
	"coAuthorsCiteseer/COLOR/CPU/BRIDGE":       0x782a3b3f900d7627,
	"coAuthorsCiteseer/COLOR/CPU/DEGk":         0x1d711dcde0364a69,
	"coAuthorsCiteseer/COLOR/CPU/MPX":          0xa1029db966744b81,
	"coAuthorsCiteseer/COLOR/CPU/RAND":         0x29fdbdbad91acb40,
	"coAuthorsCiteseer/COLOR/GPU/BASELINE":     0xa1029db966744b81,
	"coAuthorsCiteseer/COLOR/GPU/BRIDGE":       0x782a3b3f900d7627,
	"coAuthorsCiteseer/COLOR/GPU/DEGk":         0x1d711dcde0364a69,
	"coAuthorsCiteseer/COLOR/GPU/MPX":          0xa1029db966744b81,
	"coAuthorsCiteseer/COLOR/GPU/RAND":         0x917d07f21f1cf123,
	"coAuthorsCiteseer/MIS-Bridge/auto":        0x00e2acc0fd7a9646,
	"coAuthorsCiteseer/MIS-Bridge/cross-first": 0x00e2acc0fd7a9646,
	"coAuthorsCiteseer/MIS-Bridge/parts-first": 0x5927710f7ba54786,
	"coAuthorsCiteseer/MIS-Rand/auto":          0x9df9656f87fc3f27,
	"coAuthorsCiteseer/MIS-Rand/cross-first":   0xcbe20731d8a95407,
	"coAuthorsCiteseer/MIS-Rand/parts-first":   0x9df9656f87fc3f27,
	"coAuthorsCiteseer/MIS/CPU/BASELINE":       0xeccaada472e6a547,
	"coAuthorsCiteseer/MIS/CPU/BRIDGE":         0x00e2acc0fd7a9646,
	"coAuthorsCiteseer/MIS/CPU/DEGk":           0x42f9aa7c9f8100e7,
	"coAuthorsCiteseer/MIS/CPU/MPX":            0xeccaada472e6a547,
	"coAuthorsCiteseer/MIS/CPU/RAND":           0x9df9656f87fc3f27,
	"coAuthorsCiteseer/MIS/GPU/BASELINE":       0xeccaada472e6a547,
	"coAuthorsCiteseer/MIS/GPU/BRIDGE":         0x00e2acc0fd7a9646,
	"coAuthorsCiteseer/MIS/GPU/DEGk":           0x42f9aa7c9f8100e7,
	"coAuthorsCiteseer/MIS/GPU/MPX":            0xeccaada472e6a547,
	"coAuthorsCiteseer/MIS/GPU/RAND":           0xb8405935c9fc1046,
	"coAuthorsCiteseer/MM/CPU/BASELINE":        0x89d152b1cd54fd1a,
	"coAuthorsCiteseer/MM/CPU/BRIDGE":          0x89d152b1cd54fd1a,
	"coAuthorsCiteseer/MM/CPU/DEGk":            0x9e6c059bc1670ba8,
	"coAuthorsCiteseer/MM/CPU/MPX":             0x89d152b1cd54fd1a,
	"coAuthorsCiteseer/MM/CPU/RAND":            0xd4e5496276c2af77,
	"coAuthorsCiteseer/MM/GPU/BASELINE":        0xc07a1d378c009c1a,
	"coAuthorsCiteseer/MM/GPU/BRIDGE":          0x6625f7db4aa96633,
	"coAuthorsCiteseer/MM/GPU/DEGk":            0xe8b7897bd9a2fab5,
	"coAuthorsCiteseer/MM/GPU/MPX":             0xc07a1d378c009c1a,
	"coAuthorsCiteseer/MM/GPU/RAND":            0x7286880c9dc9901c,
	"germany-osm/COLOR/CPU/BASELINE":           0x7c8f368a98574be7,
	"germany-osm/COLOR/CPU/BRIDGE":             0xb15c1458c7540887,
	"germany-osm/COLOR/CPU/DEGk":               0x5f764720f61c9f24,
	"germany-osm/COLOR/CPU/MPX":                0x172c9196b5bbe467,
	"germany-osm/COLOR/CPU/RAND":               0x494dd70472a9ae05,
	"germany-osm/COLOR/GPU/BASELINE":           0x7c8f368a98574be7,
	"germany-osm/COLOR/GPU/BRIDGE":             0xb15c1458c7540887,
	"germany-osm/COLOR/GPU/DEGk":               0x5f764720f61c9f24,
	"germany-osm/COLOR/GPU/MPX":                0x172c9196b5bbe467,
	"germany-osm/COLOR/GPU/RAND":               0x43009cb60c412e07,
	"germany-osm/MIS-Bridge/auto":              0x33829a1ca8a0b947,
	"germany-osm/MIS-Bridge/cross-first":       0x33829a1ca8a0b947,
	"germany-osm/MIS-Bridge/parts-first":       0xe8f6733c016ef567,
	"germany-osm/MIS-Rand/auto":                0x1f6e2692f88d0a86,
	"germany-osm/MIS-Rand/cross-first":         0xa2a9d35a16c59f27,
	"germany-osm/MIS-Rand/parts-first":         0x1f6e2692f88d0a86,
	"germany-osm/MIS/CPU/BASELINE":             0x7d82aa00bc239047,
	"germany-osm/MIS/CPU/BRIDGE":               0x33829a1ca8a0b947,
	"germany-osm/MIS/CPU/DEGk":                 0x772a08f08d6d6766,
	"germany-osm/MIS/CPU/MPX":                  0x3738f4124d650de6,
	"germany-osm/MIS/CPU/RAND":                 0x1f6e2692f88d0a86,
	"germany-osm/MIS/GPU/BASELINE":             0x7d82aa00bc239047,
	"germany-osm/MIS/GPU/BRIDGE":               0x33829a1ca8a0b947,
	"germany-osm/MIS/GPU/DEGk":                 0x772a08f08d6d6766,
	"germany-osm/MIS/GPU/MPX":                  0x3738f4124d650de6,
	"germany-osm/MIS/GPU/RAND":                 0x70cfb1ce9f7bc5e7,
	"germany-osm/MM/CPU/BASELINE":              0x54f522470772e820,
	"germany-osm/MM/CPU/BRIDGE":                0x54f522470772e820,
	"germany-osm/MM/CPU/DEGk":                  0x54f522470772e820,
	"germany-osm/MM/CPU/MPX":                   0x8608c340a2f4ae27,
	"germany-osm/MM/CPU/RAND":                  0x04e1f675a1f6e5eb,
	"germany-osm/MM/GPU/BASELINE":              0xa1e073af27d6bb75,
	"germany-osm/MM/GPU/BRIDGE":                0x724d97399f77c3bb,
	"germany-osm/MM/GPU/DEGk":                  0xe0af293720b1a445,
	"germany-osm/MM/GPU/MPX":                   0x1b6e01598c7de347,
	"germany-osm/MM/GPU/RAND":                  0x0e88018c46d8c85d,
	"kron-g500-logn20/COLOR/CPU/BASELINE":      0x24cd99f519445b62,
	"kron-g500-logn20/COLOR/CPU/BRIDGE":        0xd03be12fd6739e84,
	"kron-g500-logn20/COLOR/CPU/DEGk":          0x500ddc0124f4de2a,
	"kron-g500-logn20/COLOR/CPU/MPX":           0x24cd99f519445b62,
	"kron-g500-logn20/COLOR/CPU/RAND":          0x504f03128259c54d,
	"kron-g500-logn20/COLOR/GPU/BASELINE":      0x24cd99f519445b62,
	"kron-g500-logn20/COLOR/GPU/BRIDGE":        0xd03be12fd6739e84,
	"kron-g500-logn20/COLOR/GPU/DEGk":          0x500ddc0124f4de2a,
	"kron-g500-logn20/COLOR/GPU/MPX":           0x24cd99f519445b62,
	"kron-g500-logn20/COLOR/GPU/RAND":          0x1ef9fa2c087f468c,
	"kron-g500-logn20/MIS-Bridge/auto":         0x66b9fba1bc9f3d86,
	"kron-g500-logn20/MIS-Bridge/cross-first":  0x66b9fba1bc9f3d86,
	"kron-g500-logn20/MIS-Bridge/parts-first":  0x148964d785d172c7,
	"kron-g500-logn20/MIS-Rand/auto":           0x238f514ff2bbaee7,
	"kron-g500-logn20/MIS-Rand/cross-first":    0xdae9dbdb6aae62c6,
	"kron-g500-logn20/MIS-Rand/parts-first":    0x238f514ff2bbaee7,
	"kron-g500-logn20/MIS/CPU/BASELINE":        0xe3e78ecba8225ee7,
	"kron-g500-logn20/MIS/CPU/BRIDGE":          0x66b9fba1bc9f3d86,
	"kron-g500-logn20/MIS/CPU/DEGk":            0x3cc573fcb0a04d47,
	"kron-g500-logn20/MIS/CPU/MPX":             0xe3e78ecba8225ee7,
	"kron-g500-logn20/MIS/CPU/RAND":            0x238f514ff2bbaee7,
	"kron-g500-logn20/MIS/GPU/BASELINE":        0xe3e78ecba8225ee7,
	"kron-g500-logn20/MIS/GPU/BRIDGE":          0x66b9fba1bc9f3d86,
	"kron-g500-logn20/MIS/GPU/DEGk":            0x3cc573fcb0a04d47,
	"kron-g500-logn20/MIS/GPU/MPX":             0xe3e78ecba8225ee7,
	"kron-g500-logn20/MIS/GPU/RAND":            0xf83df104e1d6d867,
	"kron-g500-logn20/MM/CPU/BASELINE":         0xf948d9b9bbffa60b,
	"kron-g500-logn20/MM/CPU/BRIDGE":           0xe45d5eb541a50b69,
	"kron-g500-logn20/MM/CPU/DEGk":             0x28f2044b193169bf,
	"kron-g500-logn20/MM/CPU/MPX":              0xf948d9b9bbffa60b,
	"kron-g500-logn20/MM/CPU/RAND":             0x2858443f312377f9,
	"kron-g500-logn20/MM/GPU/BASELINE":         0x912c6b375a0a0460,
	"kron-g500-logn20/MM/GPU/BRIDGE":           0xd5c6450cbee85cc8,
	"kron-g500-logn20/MM/GPU/DEGk":             0x77be98c6ecbf35bc,
	"kron-g500-logn20/MM/GPU/MPX":              0x912c6b375a0a0460,
	"kron-g500-logn20/MM/GPU/RAND":             0x482e785708b8af4e,
	"lp1/COLOR/CPU/BASELINE":                   0xd30364e6e6ebd525,
	"lp1/COLOR/CPU/BRIDGE":                     0x8d11359807033ac7,
	"lp1/COLOR/CPU/DEGk":                       0xc6f96cb21a0933c0,
	"lp1/COLOR/CPU/MPX":                        0x16eab45f5d8f1226,
	"lp1/COLOR/CPU/RAND":                       0xce0c11d35f617946,
	"lp1/COLOR/GPU/BASELINE":                   0xd30364e6e6ebd525,
	"lp1/COLOR/GPU/BRIDGE":                     0x8d11359807033ac7,
	"lp1/COLOR/GPU/DEGk":                       0xc6f96cb21a0933c0,
	"lp1/COLOR/GPU/MPX":                        0x16eab45f5d8f1226,
	"lp1/COLOR/GPU/RAND":                       0xe89a2ae424c790e7,
	"lp1/MIS-Bridge/auto":                      0xe51dead18437ca87,
	"lp1/MIS-Bridge/cross-first":               0x70617db3d4f99f26,
	"lp1/MIS-Bridge/parts-first":               0xe51dead18437ca87,
	"lp1/MIS-Rand/auto":                        0xd84d92a09a895227,
	"lp1/MIS-Rand/cross-first":                 0x04d3f53e646a32e6,
	"lp1/MIS-Rand/parts-first":                 0xd84d92a09a895227,
	"lp1/MIS/CPU/BASELINE":                     0xcedff162e3c2d6a7,
	"lp1/MIS/CPU/BRIDGE":                       0xe51dead18437ca87,
	"lp1/MIS/CPU/DEGk":                         0xe0c58c87b59b2ce7,
	"lp1/MIS/CPU/MPX":                          0xc3bc6599524eff86,
	"lp1/MIS/CPU/RAND":                         0xd84d92a09a895227,
	"lp1/MIS/GPU/BASELINE":                     0xcedff162e3c2d6a7,
	"lp1/MIS/GPU/BRIDGE":                       0xe51dead18437ca87,
	"lp1/MIS/GPU/DEGk":                         0xe0c58c87b59b2ce7,
	"lp1/MIS/GPU/MPX":                          0xc3bc6599524eff86,
	"lp1/MIS/GPU/RAND":                         0x94c0ae77af7b1d46,
	"lp1/MM/CPU/BASELINE":                      0xaf83e812e52ab5b7,
	"lp1/MM/CPU/BRIDGE":                        0xaf83e812e52ab5b7,
	"lp1/MM/CPU/DEGk":                          0x27efaeee8c45b64b,
	"lp1/MM/CPU/MPX":                           0x2644c45cf51b4676,
	"lp1/MM/CPU/RAND":                          0x6449d697b0a91823,
	"lp1/MM/GPU/BASELINE":                      0xd3549d435405162d,
	"lp1/MM/GPU/BRIDGE":                        0x4682e4b2375c9bbb,
	"lp1/MM/GPU/DEGk":                          0x93caa7e419b11164,
	"lp1/MM/GPU/MPX":                           0x1550e00f3452b30e,
	"lp1/MM/GPU/RAND":                          0xe63c61d6c0ed47bc,
	"rgg-n-2-23-s0/COLOR/CPU/BASELINE":         0xfb047fc75c91bb5e,
	"rgg-n-2-23-s0/COLOR/CPU/BRIDGE":           0xfb047fc75c91bb5e,
	"rgg-n-2-23-s0/COLOR/CPU/DEGk":             0x8bd5a17848393cfc,
	"rgg-n-2-23-s0/COLOR/CPU/MPX":              0x47d72ceb900db21c,
	"rgg-n-2-23-s0/COLOR/CPU/RAND":             0xd65b11584abe3ad8,
	"rgg-n-2-23-s0/COLOR/GPU/BASELINE":         0xfb047fc75c91bb5e,
	"rgg-n-2-23-s0/COLOR/GPU/BRIDGE":           0xfb047fc75c91bb5e,
	"rgg-n-2-23-s0/COLOR/GPU/DEGk":             0x8bd5a17848393cfc,
	"rgg-n-2-23-s0/COLOR/GPU/MPX":              0x47d72ceb900db21c,
	"rgg-n-2-23-s0/COLOR/GPU/RAND":             0xaaba8a11591d64c0,
	"rgg-n-2-23-s0/MIS-Bridge/auto":            0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS-Bridge/cross-first":     0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS-Bridge/parts-first":     0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS-Rand/auto":              0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS-Rand/cross-first":       0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS-Rand/parts-first":       0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS/CPU/BASELINE":           0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS/CPU/BRIDGE":             0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS/CPU/DEGk":               0x2adab77598b97ce7,
	"rgg-n-2-23-s0/MIS/CPU/MPX":                0x7a8d31010dbe7866,
	"rgg-n-2-23-s0/MIS/CPU/RAND":               0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS/GPU/BASELINE":           0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS/GPU/BRIDGE":             0x7a7c718832ef9707,
	"rgg-n-2-23-s0/MIS/GPU/DEGk":               0x2adab77598b97ce7,
	"rgg-n-2-23-s0/MIS/GPU/MPX":                0x7a8d31010dbe7866,
	"rgg-n-2-23-s0/MIS/GPU/RAND":               0x0aa1f31a465e6ee6,
	"rgg-n-2-23-s0/MM/CPU/BASELINE":            0xb06c84ca8596ec80,
	"rgg-n-2-23-s0/MM/CPU/BRIDGE":              0xb06c84ca8596ec80,
	"rgg-n-2-23-s0/MM/CPU/DEGk":                0x290076c3d75db131,
	"rgg-n-2-23-s0/MM/CPU/MPX":                 0x635b28762452a0e8,
	"rgg-n-2-23-s0/MM/CPU/RAND":                0xcca821b4a04baf8c,
	"rgg-n-2-23-s0/MM/GPU/BASELINE":            0xb99edf4ccd9b3c2b,
	"rgg-n-2-23-s0/MM/GPU/BRIDGE":              0xb99edf4ccd9b3c2b,
	"rgg-n-2-23-s0/MM/GPU/DEGk":                0x1b7bad3dcc725714,
	"rgg-n-2-23-s0/MM/GPU/MPX":                 0xd4e9a0b01af2b5e5,
	"rgg-n-2-23-s0/MM/GPU/RAND":                0x8d4e30d0f20b4393,
}

// goldenCells computes the digest of every golden cell on graph g.
func goldenCells(t *testing.T, name string, g *graph.Graph, out map[string]uint64) {
	t.Helper()
	for _, p := range []core.Problem{core.ProblemMM, core.ProblemColor, core.ProblemMIS} {
		for _, a := range []core.Arch{core.ArchCPU, core.ArchGPU} {
			for _, s := range []core.Strategy{core.StrategyBaseline, core.StrategyBridge,
				core.StrategyRand, core.StrategyDegk, core.StrategyMPX} {
				res, err := core.Solve(g, p, core.Options{Strategy: s, Arch: a, Seed: 5})
				if err != nil {
					t.Fatalf("%s/%v/%v/%v: %v", name, p, a, s, err)
				}
				if err := core.Verify(g, res); err != nil {
					t.Fatalf("%s/%v/%v/%v: %v", name, p, a, s, err)
				}
				out[fmt.Sprintf("%s/%v/%v/%v", name, p, a, s)] = res.SolutionDigest()
			}
		}
	}
	alg := mis.LubySolver(5)
	orders := map[mis.Order]string{mis.OrderAuto: "auto", mis.OrderPartsFirst: "parts-first", mis.OrderCrossFirst: "cross-first"}
	for ord, o := range orders {
		s, _ := mis.MISBridge(g, alg, ord)
		out[name+"/MIS-Bridge/"+o] = (&core.Result{IndepSet: s}).SolutionDigest()
		s, _ = mis.MISRand(g, 10, 5, alg, ord)
		out[name+"/MIS-Rand/"+o] = (&core.Result{IndepSet: s}).SolutionDigest()
	}
}

// TestGoldenDigests asserts every golden cell still produces its committed
// solution digest.
func TestGoldenDigests(t *testing.T) {
	got := map[string]uint64{}
	for _, name := range goldenAnalogs {
		spec, ok := dataset.Get(name)
		if !ok {
			t.Fatalf("unknown dataset analog %q", name)
		}
		goldenCells(t, name, dataset.Load(spec, 0.1, 1), got)
	}
	bad := 0
	for key, d := range got {
		if want, ok := goldenDigests[key]; !ok || want != d {
			bad++
			t.Errorf("%s: digest %#016x, golden %#016x", key, d, want)
		}
	}
	if len(goldenDigests) != len(got) {
		t.Errorf("golden table has %d entries, the cells produce %d", len(goldenDigests), len(got))
	}
	if bad > 0 || len(goldenDigests) != len(got) {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %#016x,\n", k, got[k])
		}
		t.Logf("replacement table:\n%s", b.String())
	}
}
