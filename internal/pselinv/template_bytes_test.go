package pselinv

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
)

// TestTemplateBytes holds the engine template of the cold upload to its
// bytes: NewPlanConfig, NewEngine and the template's first run on Grid2D 96²
// under nested dissection on its graph (relax 4, width 48), P = 16, shifted
// trees, symmetric values — the plan, the compiled programs and the run state
// a cold request builds. The first of three rounds also fills the kernels'
// arena and the free lists of inbox rings and rank states, so the least is
// the template's. Measured 10.9–11.4 MB, with the race detector and without,
// since the run lays its program out on the listed states of the round before
// (16.0–16.1 MB while every template laid out states of its own; 20.1–20.4 MB
// while a template's first run grew its inbox rings and a reduction's state
// was 64 bytes; 28.9 MB when every collective copied its own tree and a role
// its children); the ceiling leaves a tenth on top.
func TestTemplateBytes(t *testing.T) {
	const ceilingMB = 12.5
	g := sparse.Grid2D(96, 96, 1)
	perm := ordering.Compute(ordering.NestedDissection, g.A, nil)
	an := etree.AnalyzeOrder(g.A, perm, etree.Options{Relax: 4, MaxWidth: 48})
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: true}
	mb := make([]float64, 3)
	for x := range mb {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := NewEngine(core.NewPlanConfig(an.BP, procgrid.Squarish(16), cfg), lu).Run(testTimeout)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		mb[x] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	if slices.Sort(mb); mb[0] > ceilingMB {
		t.Errorf("a template and its first run allocate %.2f MB, ceiling %.1f", mb[0], ceilingMB)
	} else {
		t.Logf("a template and its first run allocate %.2f MB (%.2f–%.2f)", mb[0], mb[0], mb[2])
	}
}

// TestRedStateSize holds a reduction's run state, one per reduction a rank
// takes part in (43.6 k on the cold template above), to the 32 bytes a run
// mutates: what the plan fixes is read off its role and the plan.
func TestRedStateSize(t *testing.T) {
	if n := unsafe.Sizeof(redState{}); n > 32 {
		t.Errorf("a redState takes %d bytes, want at most 32", n)
	}
}
