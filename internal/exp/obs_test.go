package exp

import (
	"strings"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/obs"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// TestObsAcceptance is the observability acceptance check: one observed run
// per scheme on the 4×4 grid must yield (a) a merged Chrome trace containing
// both compute and collective spans, (b) per-class traffic matrices whose
// marginals equal the world's volume counters (the numbers cmd/commvol
// prints for the same seed), and (c) measured broadcast forwarding chains
// where the tree schemes beat the flat tree.
func TestObsAcceptance(t *testing.T) {
	p, grid, err := ObsProblem()
	if err != nil {
		t.Fatal(err)
	}
	chainSum := map[core.Scheme]int{}
	for _, scheme := range core.Schemes() {
		// observe is MeasureObs's body; it also hands back the run, whose
		// world holds the volume counters (b) compares against.
		m, res, err := observe(p, grid, scheme, 1, 60*time.Second, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		rep := m.Report

		// (a) Merged trace: compute spans and role-tagged collective spans
		// on one timeline.
		var b strings.Builder
		if err := obs.WriteChromeTrace(&b, m.Spans); err != nil {
			t.Fatal(err)
		}
		tr := b.String()
		for _, want := range []string{`"cat":"compute"`, `"cat":"collective"`,
			`"role":"root"`, `"role":"leaf"`, "gemm", "col-bcast"} {
			if !strings.Contains(tr, want) {
				t.Errorf("%v: chrome trace lacks %s", m.Scheme, want)
			}
		}

		// (b) Traffic matrices are consistent with the byte counters: per
		// class, row sums equal SentBytes and column sums equal RecvBytes.
		if len(rep.Classes) == 0 {
			t.Fatalf("%v: report has no traffic classes", m.Scheme)
		}
		for _, cr := range rep.Classes {
			if cr.Matrix == nil {
				t.Fatalf("%v: class %s has no embedded matrix at P=%d", m.Scheme, cr.Class, rep.P)
			}
			var class simmpi.Class
			found := false
			for _, c := range simmpi.Classes() {
				if c.String() == cr.Class {
					class, found = c, true
				}
			}
			if !found {
				t.Fatalf("%v: unknown class %s", m.Scheme, cr.Class)
			}
			for r := 0; r < rep.P; r++ {
				var row, col int64
				for x := 0; x < rep.P; x++ {
					row += cr.Matrix[r*rep.P+x]
					col += cr.Matrix[x*rep.P+r]
				}
				if want := res.World.SentBytes(r, class); row != want {
					t.Errorf("%v: %s rank %d: matrix row sum %d, counter %d",
						m.Scheme, cr.Class, r, row, want)
				}
				if want := res.World.RecvBytes(r, class); col != want {
					t.Errorf("%v: %s rank %d: matrix col sum %d, counter %d",
						m.Scheme, cr.Class, r, col, want)
				}
			}
		}

		// (c) Chain analysis must be complete (no ring overflow) for the
		// comparison to mean anything.
		if !rep.ChainsOK {
			t.Fatalf("%v: chain analysis incomplete (%d events dropped)", m.Scheme, rep.DroppedEvents)
		}
		chainSum[m.Scheme] = rep.BcastChainSum()
	}

	flat := chainSum[core.FlatTree]
	if flat == 0 {
		t.Fatal("flat-tree run measured no broadcast chains")
	}
	for _, s := range []core.Scheme{core.BinaryTree, core.ShiftedBinaryTree} {
		if chainSum[s] >= flat {
			t.Errorf("measured bcast chain sum for %v (%d) is not below FlatTree (%d)",
				s, chainSum[s], flat)
		}
	}
	t.Logf("measured bcast chain sums: %v", chainSum)
}

// TestObsChainsCompleteWithoutCapacity: the ring is sized from the plan, so
// problems an order of magnitude past ObsProblem analyze complete chains
// with no capacity given anywhere — here the two P=16 benchmark-sized ones
// (1,065 and 7,311 messages through the busiest rank).
func TestObsChainsCompleteWithoutCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("factorizes a 96x96 grid")
	}
	for _, g := range []*sparse.Generated{sparse.DG2D(24, 24, 4, 1), sparse.Grid2D(96, 96, 1)} {
		p, err := Prepare(g, DefaultRelax, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := MeasureObs(p, procgrid.New(4, 4), []core.Scheme{core.ShiftedBinaryTree}, 1, 60*time.Second, RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if rep := ms[0].Report; !rep.ChainsOK || rep.DroppedEvents != 0 {
			t.Errorf("%s: chains complete=%v, %d events dropped", g.Name, rep.ChainsOK, rep.DroppedEvents)
		}
	}
}
