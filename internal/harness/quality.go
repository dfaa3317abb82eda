// Quality: solution-quality comparison against sequential references —
// matching size, color count, and independent-set size ratios.

package harness

import (
	"fmt"

	"repro/internal/coloring"
	"repro/internal/dataset"
	"repro/internal/matching"
	"repro/internal/mis"
	"repro/internal/seq"
)

// Quality reports solution quality across methods: matching cardinality,
// color counts, and MIS sizes for the sequential greedy reference, the
// parallel baseline, and the paper's Table I winner. It sharpens the
// paper's §IV-D color-count discussion with a strong sequential anchor
// (smallest-degree-last greedy).
func Quality(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		Title: "Solution quality: sequential greedy | parallel baseline | Table-I winner",
		Header: []string{"graph",
			"|M| seq", "|M| GM", "|M| MM-Rand",
			"colors seq", "colors VB", "colors Degk",
			"|MIS| seq", "|MIS| Luby", "|MIS| Deg2"},
	}
	for _, spec := range cfg.specs() {
		g := dataset.Load(spec, cfg.Scale, cfg.Seed)
		mSeq := seq.Matching(g).Cardinality()
		mGM, _ := matching.GM(g)
		mRand, _ := matching.MMRand(g, spec.MMRandPartsCPU, cfg.Seed, matching.GMSolver())
		cSeq := seq.Color(g).NumColors()
		cVB, _ := coloring.NewVB().Fresh(g)
		cDegk, _ := coloring.ColorDegk(g, 2, coloring.NewVB())
		sSeq := seq.MIS(g).Size()
		sLuby, _ := mis.Luby(g, cfg.Seed)
		sDeg2, _ := mis.MISDeg2(g, mis.LubySolver(cfg.Seed), mis.KPSolver())
		t.Rows = append(t.Rows, []string{
			spec.Name,
			fmt.Sprintf("%d", mSeq), fmt.Sprintf("%d", mGM.Cardinality()), fmt.Sprintf("%d", mRand.Cardinality()),
			fmt.Sprintf("%d", cSeq), fmt.Sprintf("%d", cVB.NumColors()), fmt.Sprintf("%d", cDegk.NumColors()),
			fmt.Sprintf("%d", sSeq), fmt.Sprintf("%d", sLuby.Size()), fmt.Sprintf("%d", sDeg2.Size()),
		})
	}
	t.Notes = append(t.Notes,
		"paper §IV-D: decomposition colorings stay within a few percent of the baseline palette; matching/MIS sizes should agree within a few percent too")
	return t
}
