package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/graph"
)

// gridScale sizes the twelve analogs of the grid workload. At 0.1 one
// pass of the 360 cells takes about 4 s on two vCPUs, so a run covers
// several passes and more than a thousand ops.
const gridScale = 0.1

var (
	gridProblems   = []core.Problem{core.ProblemMM, core.ProblemColor, core.ProblemMIS}
	gridArchs      = []core.Arch{core.ArchCPU, core.ArchGPU}
	gridStrategies = []core.Strategy{
		core.StrategyBaseline, core.StrategyBridge, core.StrategyRand, core.StrategyDegk, core.StrategyMPX,
	}
)

// setupReps is how many times a run builds its set-up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// loadAnalogs builds the twelve Table II analogs through dataset.Load,
// starting from an empty dataset cache so every call pays generation.
func loadAnalogs(scale float64, seed uint64) []*graph.Graph {
	dataset.ClearCache()
	specs := dataset.All()
	gs := make([]*graph.Graph, len(specs))
	for i, s := range specs {
		gs[i] = dataset.Load(s, scale, seed)
	}
	return gs
}

// gridCell is one (graph, problem, arch, strategy) cell of the paper's
// grid, with the options the harness uses for it.
type gridCell struct {
	name string
	g    *graph.Graph
	p    core.Problem
	opt  core.Options
}

func gridCells(gs []*graph.Graph, seed uint64) []gridCell {
	var cells []gridCell
	for i, spec := range dataset.All() {
		for _, p := range gridProblems {
			for _, a := range gridArchs {
				for _, s := range gridStrategies {
					opt := core.Options{Strategy: s, Arch: a, Seed: seed, DegK: 2}
					// RAND partition counts as in the paper (and the
					// harness): per instance for MM, the architecture
					// default for COLOR and MIS.
					switch {
					case p == core.ProblemMM && a == core.ArchGPU:
						opt.RandParts = spec.MMRandPartsGPU
					case p == core.ProblemMM:
						opt.RandParts = spec.MMRandPartsCPU
					case a == core.ArchGPU:
						opt.RandParts = 4
					default:
						opt.RandParts = 10
					}
					cells = append(cells, gridCell{
						name: fmt.Sprintf("%s/%s/%s/%s", spec.Name, p, a, s),
						g:    gs[i], p: p, opt: opt,
					})
				}
			}
		}
	}
	return cells
}

// runGrid is the grid workload: every cell of the paper's Table I grid on
// graphs already in memory, one caller, Solve → Verify → SolutionDigest.
func runGrid(cfg config) (*outcome, error) {
	var gs []*graph.Graph
	// This set-up takes a fraction of a second, so more repetitions
	// steady its median for little cost.
	setup := make([]float64, 3*setupReps)
	for r := range setup {
		t0 := time.Now()
		gs = loadAnalogs(gridScale, cfg.seed)
		setup[r] = time.Since(t0).Seconds()
	}
	cells := gridCells(gs, cfg.seed)
	refs, err := refDigests(len(cells), func(i int) (*graph.Graph, core.Problem, core.Options) {
		return cells[i].g, cells[i].p, cells[i].opt
	})
	if err != nil {
		return nil, err
	}
	ops := make([]op, len(cells))
	for i, c := range cells {
		ops[i] = op{name: c.name, run: func(t *opTrace) error {
			return solveVerifyDigest(c.g, c.p, c.opt, refs[i], t)
		}}
	}
	return measureClosed(cfg, ops, setup, map[string]float64{"dataset.build_s": median(setup)}), nil
}
