package core_test

import (
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// BenchmarkPlanBuild times building the communication plan, every tree of
// it, on two patterns: the cold-upload problem (Grid2D 96², graph nested
// dissection as for a geometry-free MatrixMarket upload, relax 4 / width 48,
// P = 16, shifted trees) and Table I's (the audikw_1 stand-in with geometric
// nested dissection, relax 4 / width 24, on the paper's 46×46 grid). Run it
// with -benchmem: the plan's bytes are the figure of merit.
func BenchmarkPlanBuild(b *testing.B) {
	pattern := func(g *sparse.Generated, geom *sparse.Geometry, maxWidth int) *etree.BlockPattern {
		perm := ordering.Compute(ordering.NestedDissection, g.A, geom)
		return etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: 4, MaxWidth: maxWidth}).BP
	}
	for _, c := range []struct {
		name string
		bp   func() *etree.BlockPattern
		grid *procgrid.Grid
	}{
		{"cold-grid2d96-p16", func() *etree.BlockPattern { return pattern(sparse.Grid2D(96, 96, 1), nil, 48) },
			procgrid.Squarish(16)},
		{"table1-audikw-46x46", func() *etree.BlockPattern { g := sparse.AudikwStandin(1); return pattern(g, g.Geom, 24) },
			procgrid.New(46, 46)},
	} {
		b.Run(c.name, func(b *testing.B) {
			bp := c.bp()
			cfg := core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.NewPlanConfig(bp, c.grid, cfg)
			}
		})
	}
}
