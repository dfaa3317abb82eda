package decomp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// LabelProp is a cheap locality-aware partitioner used as the METIS
// stand-in for the ablation experiments (the paper's Remark 1 excludes real
// PMETIS because its partitioning time alone exceeds the symmetry-breaking
// baselines — this stand-in lets us measure that trade-off without shipping
// a multilevel partitioner).
//
// It seeds a random k-way assignment and then runs iters rounds in which
// every vertex adopts the most common label among its neighbors (ties break
// toward the smaller label; isolated vertices keep their seed). The result
// has the RAND shape: k induced parts plus the cross-edge subgraph, but
// with far fewer cross edges on graphs with locality.
func LabelProp(g *graph.Graph, k, iters int, seed uint64) *Result {
	if k < 1 {
		panic(fmt.Sprintf("decomp: LabelProp with k=%d", k))
	}
	r := &Result{Technique: TechLabelProp}
	sp := trace.Begin("decomp/LABELPROP")
	r.Elapsed = timed(func() {
		n := g.NumVertices()
		label := RandLabels(n, k, seed)
		next := make([]int32, n)
		for it := 0; it < iters; it++ {
			var changed int32
			par.Range(n, func(lo, hi int) {
				counts := make([]int32, k)
				anyChanged := false
				for i := lo; i < hi; i++ {
					v := int32(i)
					ns := g.Neighbors(v)
					if len(ns) == 0 {
						next[i] = label[i]
						continue
					}
					for j := range counts {
						counts[j] = 0
					}
					for _, w := range ns {
						counts[label[w]]++
					}
					best := label[i]
					bestC := counts[best]
					for j := int32(0); int(j) < k; j++ {
						if counts[j] > bestC {
							best, bestC = j, counts[j]
						}
					}
					next[i] = best
					if best != label[i] {
						anyChanged = true
					}
				}
				if anyChanged {
					atomic.StoreInt32(&changed, 1)
				}
			})
			label, next = next, label
			r.Rounds++
			if changed == 0 {
				break
			}
		}
		// Guard against a part going empty (label propagation can absorb
		// small parts): remap used labels densely and adjust k.
		used := make([]int64, k)
		par.For(n, func(i int) { atomic.StoreInt64(&used[label[i]], 1) })
		rank := par.ExclusiveSum(used)
		kk := int(rank[k])
		if kk == 0 {
			kk = 1 // empty graph: keep a single empty part
		}
		if kk < k {
			par.For(n, func(i int) { label[i] = int32(rank[label[i]]) })
		}
		r.Parts, r.Cross = graph.PartitionByLabel(g, label, kk)
		r.Label = label
	})
	if trace.Enabled() {
		traceResult(sp, r)
	}
	sp.End()
	return r
}
