package coloring

import (
	"math/bits"

	"repro/internal/bsp"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/trace"
)

// EB is the paper's GPU baseline (Algorithm EB, after Deveci et al.):
// edge-based speculative coloring designed for SIMD architectures. Instead
// of a FORBIDDEN array, a 32-bit integer represents color availability
// within a 32-color band. Every working vertex takes the smallest available
// color; conflicts are detected on edges and the lowest-id endpoint of each
// monochromatic edge is reset. Kernels run on the bsp virtual manycore.
type EB struct {
	machine *bsp.Machine
}

// NewEB returns an EB engine bound to the given machine.
func NewEB(m *bsp.Machine) *EB { return &EB{machine: m} }

// Name implements Engine.
func (eb *EB) Name() string { return "EB" }

// Exec implements Engine's executor: a kernel launch on the machine.
func (eb *EB) Exec(n int, kernel func(i int)) { eb.machine.Launch(n, kernel) }

// Fresh implements Engine.
func (eb *EB) Fresh(g *graph.Graph) (*Coloring, Stats) {
	c := NewColoring(g.NumVertices())
	work := make([]int32, g.NumVertices())
	par.Iota(work)
	st := eb.Repair(g, c.Color, work)
	return c, st
}

// Repair implements Engine.
func (eb *EB) Repair(g *graph.Graph, color []int32, work []int32) Stats {
	var st Stats
	n := g.NumVertices()
	cand := make([]int32, n)

	for len(work) > 0 {
		st.Rounds++
		// Kernel 1: speculative smallest available color via 32-bit bands.
		eb.machine.Launch(len(work), func(i int) {
			v := work[i]
			cand[v] = findColor32(g, color, v)
		})
		// Kernel 2: commit.
		eb.machine.Launch(len(work), func(i int) {
			color[work[i]] = cand[work[i]]
		})
		// Kernel 3: edge conflict detection; the lowest (hashed-id)
		// priority of each monochromatic edge resets.
		eb.machine.Launch(len(work), func(i int) {
			v := work[i]
			cv := color[v]
			for _, w := range g.Neighbors(v) {
				if color[w] == cv && loses(v, w) {
					cand[v] = Uncolored
					break
				}
			}
		})
		// Kernel 4: apply resets.
		eb.machine.Launch(len(work), func(i int) {
			if cand[work[i]] == Uncolored {
				color[work[i]] = Uncolored
			}
		})
		work = par.Filter(work, func(v int32) bool { return color[v] == Uncolored })
		if trace.Enabled() {
			trace.Append("frontier", int64(len(work)))
		}
	}
	return st
}

// findColor32 returns the smallest color not used by v's neighbors,
// scanning the palette in 32-color bands with a bitmask (the paper: "a 32
// bit integer is used to represent the availability of the colors").
func findColor32(g *graph.Graph, color []int32, v int32) int32 {
	for base := int32(0); ; base += 32 {
		var forbid uint32
		for _, w := range g.Neighbors(v) {
			if cw := color[w]; cw >= base && cw < base+32 {
				forbid |= 1 << uint(cw-base)
			}
		}
		if forbid != ^uint32(0) {
			return base + int32(bits.TrailingZeros32(^forbid))
		}
	}
}
