package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/par"
)

// layerStats accumulates what a traced window observes per layer.
type layerStats struct {
	// samples holds per-call timings and rates, reported as medians.
	samples map[string][]float64
	// sums holds totals for ratios taken over the whole window.
	sums map[string]float64
	// counts holds the deterministic work counts of one fixed set of ops
	// (the first full pass of a closed loop, the whole schedule of an
	// open loop), which must repeat exactly for a given seed.
	counts map[string]int64
}

func newLayerStats() *layerStats {
	return &layerStats{samples: map[string][]float64{}, sums: map[string]float64{}, counts: map[string]int64{}}
}

func (l *layerStats) sample(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

// opTrace is what a traced op records into: its own span, the window's
// layer stats, and whether its counts belong to the counted set of ops.
// Untraced ops get a nil *opTrace.
type opTrace struct {
	span     *span
	ls       *layerStats
	counting bool
}

// solverLayer names the module that solves p.
func solverLayer(p core.Problem) string {
	switch p {
	case core.ProblemMM:
		return "matching"
	case core.ProblemColor:
		return "coloring"
	default:
		return "mis"
	}
}

// decompName names the decomposition a strategy runs, or "" for none.
func decompName(s core.Strategy) string {
	switch s {
	case core.StrategyBridge, core.StrategyRand, core.StrategyDegk, core.StrategyMPX:
		return strings.ToLower(s.String())
	}
	return ""
}

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocated is the cumulative number of bytes the program has
// allocated on the heap (MemStats.TotalAlloc, read without stopping the
// world).
func heapAllocated() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// solveVerifyDigest is the body of every closed-loop op: core.Solve,
// core.Verify and Result.SolutionDigest on g, checked against the
// reference digest. Any error or mismatch fails the op.
func solveVerifyDigest(g *graph.Graph, p core.Problem, opt core.Options, ref uint64, t *opTrace) error {
	var a0 uint64
	if t != nil {
		a0 = heapAllocated()
	}
	t0 := time.Now()
	res, err := core.Solve(g, p, opt)
	call := time.Since(t0)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if t != nil {
		t.solved(p, res, t0, call, heapAllocated()-a0)
	}
	t1 := time.Now()
	verr := core.Verify(g, res)
	t2 := time.Now()
	dig := res.SolutionDigest()
	t3 := time.Now()
	if t != nil {
		t.span.child("core.Verify", "core", t1, t2.Sub(t1))
		t.span.child("Result.SolutionDigest", "core", t2, t3.Sub(t2))
		t.ls.sample("core.verify_ms", ms(t2.Sub(t1)))
		t.ls.sample("core.digest_ms", ms(t3.Sub(t2)))
	}
	if verr != nil {
		return fmt.Errorf("verify: %w", verr)
	}
	if dig != ref {
		return fmt.Errorf("digest %016x, reference %016x", dig, ref)
	}
	return nil
}

// solved records one core.Solve call: a core span holding the
// decomposition and solver phases rebuilt from the Report, and the
// per-layer samples and counts the Report and bsp.Stats carry.
func (t *opTrace) solved(p core.Problem, res *core.Result, start time.Time, call time.Duration, alloc uint64) {
	rep := res.Report
	sp := t.span.child("core.Solve "+p.String()+"/"+rep.Strategy.String()+"/"+rep.Arch.String(), "core", start, call)
	solver := solverLayer(p)
	if d := decompName(rep.Strategy); d != "" {
		sp.then("decomp "+d, "decomp", rep.Decomp)
		t.ls.sample("decomp."+d+"_ms", ms(rep.Decomp))
	}
	sv := sp.then(rep.StrategyName, solver, rep.Solve)
	sv.count("rounds", int64(rep.Rounds))
	t.ls.sample("core.wrap_ms", ms(call-rep.Decomp-rep.Solve))
	t.ls.sample(solver+".solve_ms", ms(rep.Solve))
	t.ls.sample(solver+".alloc_mb", float64(alloc)/(1<<20))
	if t.counting {
		t.ls.counts[solver+".rounds"] += int64(rep.Rounds)
	}
	if rep.Arch != core.ArchGPU {
		return
	}
	gs := rep.GPUStats
	k := sv.child("bsp kernels", "bsp", sv.start, min(gs.KernelTime, sv.dur))
	k.count("launches", gs.Launches)
	k.count("threads", gs.ThreadsRun)
	t.ls.sample("bsp.kernel_ms", ms(gs.KernelTime))
	t.ls.sums["bsp.kernel_ns"] += float64(gs.KernelTime.Nanoseconds())
	t.ls.sums["bsp.launches"] += float64(gs.Launches)
	if t.counting {
		t.ls.counts["bsp.launches"] += gs.Launches
		t.ls.counts["bsp.threads"] += gs.ThreadsRun
	}
}

// op is one closed-loop operation; run returns an error when the op
// failed (a solve error, a verify failure or a digest mismatch).
type op struct {
	name string
	run  func(t *opTrace) error
}

// window is what one timed window measured.
type window struct {
	lat []float64 // an open loop's ms per request, failed ones included
	// byOp holds a closed loop's ms per op, failed ops included: one per
	// pass.
	byOp [][]float64
	// block is the size of an open loop's blocks of requests, each with
	// the same mix of requests; see blockPercentile.
	block             int
	attempted, failed int
	errs              []string // the first few failures
	elapsed           time.Duration
	allocBytes        uint64
	peakRSSMB         float64
	rssReset          bool // peakRSSMB covers this window only
	roots             []*span
}

const keepErrs = 5

func (w *window) fail(name, why string) {
	w.failed++
	if len(w.errs) < keepErrs {
		w.errs = append(w.errs, name+": "+why)
	}
}

// opsPerSec is verified ops per second. A closed loop takes it over one
// pass at each op's median latency (see opMedians).
func (w *window) opsPerSec() float64 {
	ok := float64(w.attempted - w.failed)
	if w.byOp == nil {
		return ratio(ok, w.elapsed.Seconds())
	}
	var pass float64
	for _, m := range opMedians(w.byOp) {
		pass += m
	}
	return ratio(float64(len(w.byOp))*ratio(ok, float64(w.attempted)), pass/1000)
}

// latencies returns the window's median and p99 latency in ms. A closed
// loop takes both over its ops' median latencies; an open loop with
// blocks takes its p99 block by block.
func (w *window) latencies() (float64, tailStat) {
	if w.byOp == nil {
		return median(w.lat), blockPercentile(w.lat, w.block, 0.99)
	}
	m := opMedians(w.byOp)
	p99 := percentile(m, 0.99)
	// The op at the rank and those beyond it set the p99; it is resolved
	// when they ran at least minBeyond times between them.
	p99.Repeats = len(w.byOp[len(w.byOp)-1])
	p99.Resolved = (p99.Beyond+1)*p99.Repeats >= minBeyond
	return median(m), p99
}

// opMedians gives each op of a closed loop the median of its latencies
// over the passes. The host is shared, and a burst of contention from
// elsewhere slows every op that runs in it; a figure taken over all
// latencies at once would move with the bursts. An op's median moves
// only when a burst covers half of its passes.
func opMedians(byOp [][]float64) []float64 {
	m := make([]float64, len(byOp))
	for i, l := range byOp {
		m[i] = median(l)
	}
	return m
}

// closedLoop runs ops in order with one caller, pass after pass, until
// dur has passed and at least one full pass is done. With ls non-nil the
// window is traced: every op gets a span, and the first pass feeds the
// deterministic counts (par counters included).
func closedLoop(name string, ops []op, dur time.Duration, ls *layerStats) *window {
	w := &window{}
	var root *span
	runtime.GC()
	w.rssReset = resetPeakRSS()
	a0 := heapAllocated()
	start := time.Now()
	if ls != nil {
		root = newSpan(name, "", start, 0)
		w.roots = []*span{root}
	}
	deadline := start.Add(dur)
	w.byOp = make([][]float64, len(ops))
loop:
	for pass := 0; ; pass++ {
		var p0 par.Stats
		if ls != nil && pass == 0 {
			p0 = par.SnapshotStats()
		}
		for i, o := range ops {
			if pass > 0 && !time.Now().Before(deadline) {
				break loop
			}
			var t *opTrace
			t0 := time.Now()
			if ls != nil {
				t = &opTrace{span: root.child(o.name, "bench", t0, 0), ls: ls, counting: pass == 0}
			}
			err := o.run(t)
			d := time.Since(t0)
			if t != nil {
				t.span.dur = d
			}
			w.attempted++
			w.byOp[i] = append(w.byOp[i], ms(d))
			if err != nil {
				w.fail(o.name, err.Error())
			}
		}
		if ls != nil && pass == 0 {
			countPar(ls, p0, par.SnapshotStats())
		}
	}
	w.elapsed = time.Since(start)
	w.allocBytes = heapAllocated() - a0
	if root != nil {
		root.dur = w.elapsed
	}
	w.peakRSSMB = peakRSSMB()
	return w
}

// countPar adds the par runtime counters between two snapshots to the
// deterministic counts.
func countPar(ls *layerStats, a, b par.Stats) {
	ls.counts["par.tasks"] += int64(b.Tasks - a.Tasks)
	ls.counts["par.seq_loops"] += int64(b.SeqLoops - a.SeqLoops)
	ls.counts["par.chunks"] += int64(b.Chunks - a.Chunks)
	ls.counts["par.steals"] += int64(b.Steals - a.Steals)
}

// refDigests solves every (g, p, opt) once with a single par worker and
// returns the solution digests: the oracle every timed op must match.
// Digests do not depend on the worker count, so a mismatch under more
// workers is a defect, never noise.
func refDigests(n int, job func(i int) (*graph.Graph, core.Problem, core.Options)) ([]uint64, error) {
	prev := par.Workers()
	par.SetWorkers(1)
	defer par.SetWorkers(prev)
	refs := make([]uint64, n)
	for i := range refs {
		g, p, opt := job(i)
		res, err := core.Solve(g, p, opt)
		if err != nil {
			return nil, fmt.Errorf("reference solve %d: %w", i, err)
		}
		if err := core.Verify(g, res); err != nil {
			return nil, fmt.Errorf("reference solve %d: verify: %w", i, err)
		}
		refs[i] = res.SolutionDigest()
	}
	return refs, nil
}
