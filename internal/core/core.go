// Package core is the library's front door: it ties the decompositions
// (internal/decomp) and the three symmetry-breaking problem solvers
// (internal/matching, internal/coloring, internal/mis) into one Solve call,
// with the paper's Table I built in as the automatic strategy choice per
// problem and architecture.
//
// A minimal use:
//
//	res, err := core.Solve(g, core.ProblemMIS, core.Options{})
//	// res.IndepSet is a verified-shape maximal independent set; res.Report
//	// carries decomposition/solve timings and round counts.
package core

import (
	"fmt"
	"time"

	"repro/internal/bsp"
	"repro/internal/coloring"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/trace"
)

// Problem selects which symmetry-breaking problem to solve.
type Problem int

const (
	// ProblemMM is Maximal Matching (paper Section III).
	ProblemMM Problem = iota
	// ProblemColor is Vertex Coloring (paper Section IV).
	ProblemColor
	// ProblemMIS is Maximal Independent Set (paper Section V).
	ProblemMIS
)

// String returns the paper's name for the problem.
func (p Problem) String() string {
	switch p {
	case ProblemMM:
		return "MM"
	case ProblemColor:
		return "COLOR"
	case ProblemMIS:
		return "MIS"
	default:
		return "UNKNOWN"
	}
}

// Strategy selects the decomposition wrapped around the base algorithm.
type Strategy int

const (
	// StrategyAuto picks the paper's Table I winner for the problem and
	// architecture.
	StrategyAuto Strategy = iota
	// StrategyBaseline runs the base algorithm with no decomposition
	// (GM/VB/LubyMIS on the CPU; LMAX/EB/LubyMIS on the GPU).
	StrategyBaseline
	// StrategyBridge uses the BRIDGE decomposition (Algorithms 4, 7, 10).
	StrategyBridge
	// StrategyRand uses the RAND decomposition (Algorithms 5, 8, 11).
	StrategyRand
	// StrategyDegk uses the DEGk decomposition (Algorithms 6, 9, 12).
	StrategyDegk
	// StrategyMPX uses the Miller–Peng–Xu exponential-shift ball-growing
	// decomposition (an extension beyond the paper's Table I).
	StrategyMPX
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAuto:
		return "AUTO"
	case StrategyBaseline:
		return "BASELINE"
	case StrategyBridge:
		return "BRIDGE"
	case StrategyRand:
		return "RAND"
	case StrategyDegk:
		return "DEGk"
	case StrategyMPX:
		return "MPX"
	default:
		return "UNKNOWN"
	}
}

// Arch selects the execution substrate.
type Arch int

const (
	// ArchCPU runs the multicore algorithms on goroutines.
	ArchCPU Arch = iota
	// ArchGPU runs the manycore algorithms on the bsp virtual device
	// (this reproduction's stand-in for the paper's K40c; see DESIGN.md).
	ArchGPU
)

// String names the architecture.
func (a Arch) String() string {
	if a == ArchGPU {
		return "GPU"
	}
	return "CPU"
}

// Options configures Solve. The zero value solves on the CPU with the
// paper's Table I strategy and default parameters.
type Options struct {
	// Strategy is the decomposition to use; StrategyAuto applies Table I.
	Strategy Strategy
	// Arch is the execution substrate.
	Arch Arch
	// RandParts is the RAND partition count k; 0 uses the paper's default
	// (10 on CPU, 4 on GPU).
	RandParts int
	// DegK is the DEGk threshold; 0 uses the paper's k = 2.
	DegK int
	// MPXBeta is the MPX ball-growing rate; 0 uses decomp.DefaultMPXBeta.
	MPXBeta float64
	// Seed drives every randomized component; runs are deterministic
	// under (Seed, options).
	Seed uint64
	// Machine is the virtual GPU to run on when Arch == ArchGPU; nil
	// creates a fresh one.
	Machine *bsp.Machine
}

// Normalized returns the options with the paper's defaults filled in —
// the same resolution Solve applies internally. Callers that key caches or
// coalesce identical requests (the serving layer) normalize first, so a
// request that spells out a default and one that leaves it zero map to the
// same key. Note Normalized materializes a fresh bsp.Machine for GPU
// options with a nil Machine; key builders should hash the scalar fields
// only.
func (o Options) Normalized() Options { return o.withDefaults() }

// withDefaults fills in the paper's defaults.
func (o Options) withDefaults() Options {
	if o.RandParts == 0 {
		if o.Arch == ArchGPU {
			o.RandParts = 4
		} else {
			o.RandParts = 10
		}
	}
	if o.DegK == 0 {
		o.DegK = 2
	}
	if o.MPXBeta == 0 {
		o.MPXBeta = decomp.DefaultMPXBeta
	}
	if o.Arch == ArchGPU && o.Machine == nil {
		o.Machine = bsp.New()
	}
	return o
}

// TableIStrategy returns the paper's best decomposition (Table I) for the
// given problem and architecture: MM→RAND on both; COLOR→DEGk on the CPU
// and no decomposition on the GPU (the paper reports 1× there); MIS→DEGk
// on both.
func TableIStrategy(p Problem, a Arch) Strategy {
	switch p {
	case ProblemMM:
		return StrategyRand
	case ProblemColor:
		if a == ArchGPU {
			return StrategyBaseline
		}
		return StrategyDegk
	case ProblemMIS:
		return StrategyDegk
	default:
		return StrategyBaseline
	}
}

// Report is the unified run report.
type Report struct {
	// Problem, Strategy and Arch echo the resolved configuration.
	Problem  Problem
	Strategy Strategy
	Arch     Arch
	// StrategyName is the concrete algorithm name ("MM-Rand", "VB", ...).
	StrategyName string
	// Decomp is the decomposition wall time (zero for baselines).
	Decomp time.Duration
	// Solve is the solving wall time.
	Solve time.Duration
	// Rounds is the total inner iteration count.
	Rounds int
	// GPUStats snapshots the virtual machine counters consumed by this run
	// (GPU runs only).
	GPUStats bsp.Stats
}

// Total is the end-to-end wall time.
func (r Report) Total() time.Duration { return r.Decomp + r.Solve }

// Result bundles the solution of whichever problem was solved with its
// report. Exactly one of Matching / Coloring / IndepSet is non-nil.
type Result struct {
	Matching *matching.Matching
	Coloring *coloring.Coloring
	IndepSet *mis.IndepSet
	Report   Report
}

// Solve runs the selected problem on g under the options. It returns an
// error only for invalid configurations; algorithmic failures are
// impossible by construction (every path yields a verified-shape solution,
// and Verify re-checks it cheaply if desired).
func Solve(g *graph.Graph, p Problem, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	strategy := opt.Strategy
	if strategy == StrategyAuto {
		strategy = TableIStrategy(p, opt.Arch)
	}
	if opt.RandParts < 1 {
		return nil, fmt.Errorf("core: RandParts must be ≥ 1, got %d", opt.RandParts)
	}
	if opt.DegK < 0 {
		return nil, fmt.Errorf("core: DegK must be ≥ 0, got %d", opt.DegK)
	}
	if opt.MPXBeta <= 0 {
		return nil, fmt.Errorf("core: MPXBeta must be > 0, got %v", opt.MPXBeta)
	}

	res := &Result{Report: Report{Problem: p, Strategy: strategy, Arch: opt.Arch}}
	var before bsp.Stats
	if opt.Arch == ArchGPU {
		before = opt.Machine.Stats()
	}

	sp := trace.Beginf("core %s/%s/%s", p, strategy, opt.Arch)
	switch p {
	case ProblemMM:
		solveMM(g, strategy, opt, res)
	case ProblemColor:
		solveColor(g, strategy, opt, res)
	case ProblemMIS:
		solveMIS(g, strategy, opt, res)
	default:
		sp.End()
		return nil, fmt.Errorf("core: unknown problem %d", p)
	}
	sp.Add("rounds", int64(res.Report.Rounds))
	sp.End()

	if opt.Arch == ArchGPU {
		after := opt.Machine.Stats()
		res.Report.GPUStats = bsp.Stats{
			Launches:   after.Launches - before.Launches,
			ThreadsRun: after.ThreadsRun - before.ThreadsRun,
			KernelTime: after.KernelTime - before.KernelTime,
			SimTime:    after.SimTime - before.SimTime,
		}
	}
	return res, nil
}

func solveMM(g *graph.Graph, strategy Strategy, opt Options, res *Result) {
	alg, name := matching.GMSolver(), "GM"
	if opt.Arch == ArchGPU {
		alg, name = matching.LMAXSolver(opt.Machine, opt.Seed), "LMAX"
	}
	var rep matching.Report
	switch strategy {
	case StrategyBaseline:
		sp := trace.Begin("solve")
		start := time.Now()
		m, st := alg(g)
		res.Matching = m
		rep = matching.Report{Strategy: name, Solve: time.Since(start), Rounds: st.Rounds}
		sp.Add("rounds", int64(st.Rounds))
		sp.Add("matched", st.Matched)
		sp.End()
	case StrategyBridge:
		res.Matching, rep = matching.MMBridge(g, alg)
	case StrategyRand:
		res.Matching, rep = matching.MMRand(g, opt.RandParts, opt.Seed, alg)
	case StrategyDegk:
		res.Matching, rep = matching.MMDegk(g, opt.DegK, alg)
	case StrategyMPX:
		res.Matching, rep = matching.MMMPX(g, opt.MPXBeta, opt.Seed, alg)
	}
	res.Report.fill(rep.Strategy, rep.Decomp, rep.Solve, rep.Rounds)
}

func solveColor(g *graph.Graph, strategy Strategy, opt Options, res *Result) {
	var eng coloring.Engine
	if opt.Arch == ArchGPU {
		eng = coloring.NewEB(opt.Machine)
	} else {
		eng = coloring.NewVB()
	}
	var rep coloring.Report
	switch strategy {
	case StrategyBaseline:
		sp := trace.Begin("solve")
		start := time.Now()
		c, st := eng.Fresh(g)
		res.Coloring = c
		rep = coloring.Report{Strategy: eng.Name(), Solve: time.Since(start), Rounds: st.Rounds}
		sp.Add("rounds", int64(st.Rounds))
		sp.End()
	case StrategyBridge:
		res.Coloring, rep = coloring.ColorBridge(g, eng)
	case StrategyRand:
		res.Coloring, rep = coloring.ColorRand(g, opt.RandParts, opt.Seed, eng)
	case StrategyDegk:
		res.Coloring, rep = coloring.ColorDegk(g, opt.DegK, eng)
	case StrategyMPX:
		res.Coloring, rep = coloring.ColorMPX(g, opt.MPXBeta, opt.Seed, eng)
	}
	res.Report.fill(rep.Strategy, rep.Decomp, rep.Solve, rep.Rounds)
}

func solveMIS(g *graph.Graph, strategy Strategy, opt Options, res *Result) {
	alg, kp := mis.LubySolver(opt.Seed), mis.KPSolver()
	if opt.Arch == ArchGPU {
		alg, kp = mis.LubyGPUSolver(opt.Machine, opt.Seed), mis.KPSolverOn(opt.Machine.Launch)
	}
	var rep mis.Report
	switch strategy {
	case StrategyBaseline:
		sp := trace.Begin("solve")
		start := time.Now()
		var st mis.Stats
		if opt.Arch == ArchGPU {
			res.IndepSet, st = mis.LubyGPU(g, opt.Machine, opt.Seed)
		} else {
			res.IndepSet, st = mis.Luby(g, opt.Seed)
		}
		rep = mis.Report{Strategy: "LubyMIS", Solve: time.Since(start), Rounds: st.Rounds}
		sp.Add("rounds", int64(st.Rounds))
		sp.End()
	case StrategyBridge:
		res.IndepSet, rep = mis.MISBridge(g, alg, mis.OrderAuto)
	case StrategyRand:
		res.IndepSet, rep = mis.MISRand(g, opt.RandParts, opt.Seed, alg, mis.OrderAuto)
	case StrategyDegk:
		res.IndepSet, rep = mis.MISDeg2(g, alg, kp)
	case StrategyMPX:
		res.IndepSet, rep = mis.MISMPX(g, opt.MPXBeta, opt.Seed, alg, mis.OrderAuto)
	}
	res.Report.fill(rep.Strategy, rep.Decomp, rep.Solve, rep.Rounds)
}

// fill copies a solver package's report fields into r.
func (r *Report) fill(name string, decomp, solve time.Duration, rounds int) {
	r.StrategyName, r.Decomp, r.Solve, r.Rounds = name, decomp, solve, rounds
}

// fnv1a64 parameters for SolutionDigest.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func digestMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// SolutionDigest returns a 64-bit FNV-1a content hash of the solution
// payload — the Mate, Color, or In array, tagged by problem kind. Because
// every solver is deterministic under (seed, options) for any worker
// count (the determinism sweep pins this), the digest is a compact
// equality witness for "same request, same answer": the serving layer
// returns it in every /solve response and the end-to-end tests compare it
// across servers. Returns 0 for a Result holding no solution.
func (r *Result) SolutionDigest() uint64 {
	h := uint64(fnvOffset64)
	switch {
	case r.Matching != nil:
		h = digestMix(h, uint64(ProblemMM))
		for _, m := range r.Matching.Mate {
			h = digestMix(h, uint64(uint32(m)))
		}
	case r.Coloring != nil:
		h = digestMix(h, uint64(ProblemColor))
		for _, c := range r.Coloring.Color {
			h = digestMix(h, uint64(uint32(c)))
		}
	case r.IndepSet != nil:
		h = digestMix(h, uint64(ProblemMIS))
		for _, in := range r.IndepSet.In {
			var b uint64
			if in {
				b = 1
			}
			h = digestMix(h, b)
		}
	default:
		return 0
	}
	return h
}

// SolutionCount returns the problem's headline cardinality: matched edges
// for MM, palette size for COLOR, member count for MIS. Returns 0 for a
// Result holding no solution.
func (r *Result) SolutionCount() int64 {
	switch {
	case r.Matching != nil:
		return r.Matching.Cardinality()
	case r.Coloring != nil:
		return int64(r.Coloring.NumColors())
	case r.IndepSet != nil:
		return r.IndepSet.Size()
	default:
		return 0
	}
}

// Verify re-checks the solution in a Result against the graph it was
// computed on: matching validity+maximality, proper complete coloring, or
// MIS independence+maximality.
func Verify(g *graph.Graph, res *Result) error {
	switch {
	case res.Matching != nil:
		return matching.Verify(g, res.Matching)
	case res.Coloring != nil:
		return coloring.Verify(g, res.Coloring)
	case res.IndepSet != nil:
		return mis.Verify(g, res.IndepSet)
	default:
		return fmt.Errorf("core: result holds no solution")
	}
}
