package pselinv

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/selinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
	"pselinv/internal/tcptransport"
)

// prepAsym builds the pipeline for an asymmetric-valued matrix.
func prepAsym(t testing.TB, g *sparse.Generated, opt etree.Options) (*etree.Analysis, *factor.LU, *blockmat.BlockMatrix) {
	t.Helper()
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, opt)
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return an, lu, selinv.SelInv(lu)
}

func runAsymAndCompare(t testing.TB, an *etree.Analysis, lu *factor.LU, ref *blockmat.BlockMatrix,
	grid *procgrid.Grid, scheme core.Scheme, seed uint64) *RunResult {
	t.Helper()
	plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{Scheme: scheme, Seed: seed})
	res, err := NewEngine(plan, lu).Run(testTimeout)
	if err != nil {
		t.Fatalf("asym grid %v scheme %v: %v", grid, scheme, err)
	}
	refKeys := ref.Keys()
	gotKeys := res.Ainv.Keys()
	if len(refKeys) != len(gotKeys) {
		t.Fatalf("asym grid %v scheme %v: %d blocks, want %d", grid, scheme, len(gotKeys), len(refKeys))
	}
	for _, key := range refKeys {
		want := ref.MustGet(key.I, key.J)
		got, ok := res.Ainv.Get(key.I, key.J)
		if !ok {
			t.Fatalf("asym grid %v scheme %v: block (%d,%d) missing", grid, scheme, key.I, key.J)
		}
		if d := got.MaxAbsDiff(want); d > 1e-9 {
			t.Fatalf("asym grid %v scheme %v: block (%d,%d) differs by %g", grid, scheme, key.I, key.J, d)
		}
	}
	return res
}

func TestAsymmetricSequentialMatchesDense(t *testing.T) {
	// Ground truth: the sequential Algorithm 1 itself must be exact on
	// asymmetric values (it never assumed symmetry).
	g := sparse.RandomAsym(30, 3, 21)
	an, _, ref := prepAsym(t, g, etree.Options{MaxWidth: 5})
	want, err := dense.Inverse(an.A.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	part := an.BP.Part
	for _, key := range ref.Keys() {
		b := ref.MustGet(key.I, key.J)
		r0, c0 := part.Start[key.I], part.Start[key.J]
		for c := 0; c < b.Cols; c++ {
			for r := 0; r < b.Rows; r++ {
				if d := b.At(r, c) - want.At(r0+r, c0+c); d > 1e-8 || d < -1e-8 {
					t.Fatalf("sequential asym selinv wrong at block (%d,%d)", key.I, key.J)
				}
			}
		}
	}
}

// transpose returns bᵀ as a new matrix.
func transpose(b *dense.Matrix) *dense.Matrix {
	t := dense.NewMatrixElem(b.Cols, b.Rows, b.Elem)
	b.TransposeInto(t)
	return t
}

func TestAsymmetricUpperNotMirror(t *testing.T) {
	// Sanity: for an asymmetric matrix, A⁻¹ is NOT symmetric — the upper
	// blocks must differ from the transposed lower ones, proving the
	// engine computes them independently rather than mirroring.
	g := sparse.RandomAsym(40, 4, 31)
	an, lu, ref := prepAsym(t, g, etree.Options{MaxWidth: 6})
	res := runAsymAndCompare(t, an, lu, ref, procgrid.New(2, 3), core.BinaryTree, 2)
	asymFound := false
	for _, key := range res.Ainv.Keys() {
		if key.I <= key.J {
			continue
		}
		lower := res.Ainv.MustGet(key.I, key.J)
		if upper, ok := res.Ainv.Get(key.J, key.I); ok {
			if upper.MaxAbsDiff(transpose(lower)) > 1e-6 {
				asymFound = true
				break
			}
		}
	}
	if !asymFound {
		t.Fatal("inverse looks symmetric; asymmetric path not exercised")
	}
}

func TestAsymmetricVolumesMatchPlan(t *testing.T) {
	g := sparse.Asymmetrize(sparse.Grid2D(8, 7, 5), 3, 0.5)
	an, lu, _ := prepAsym(t, g, etree.Options{Relax: 1, MaxWidth: 6})
	grid := procgrid.New(4, 3)
	plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 7})
	res, err := NewEngine(plan, lu).Run(testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-validate measured volumes against the analytic plan for the
	// asymmetric-only classes too.
	checks := map[core.OpKind]simmpi.Class{
		core.OpColBcast:  simmpi.ClassColBcast,
		core.OpRowBcast:  simmpi.ClassRowBcast,
		core.OpRowReduce: simmpi.ClassRowReduce,
		core.OpColReduce: simmpi.ClassColReduce,
	}
	for kind, class := range checks {
		want := expectedBytes(plan, kind)
		var got int64
		for r := 0; r < res.World.P; r++ {
			got += res.World.SentBytes(r, class)
		}
		if got != want {
			t.Errorf("class %v: sent %d bytes, plan predicts %d", class, got, want)
		}
		if want == 0 {
			t.Errorf("class %v: plan predicts no traffic at all", class)
		}
	}
	// Symmetric-only traffic must be absent.
	for r := 0; r < res.World.P; r++ {
		if res.World.SentBytes(r, simmpi.ClassSymmSend) != 0 {
			t.Fatal("asymmetric run produced SymmSend traffic")
		}
	}
}

func TestAsymmetricPlanOnSymmetricValuesStillCorrect(t *testing.T) {
	// The general path must also be valid for symmetric values (it just
	// communicates more).
	g := sparse.Grid2D(6, 6, 8)
	an, lu, ref := prepAsym(t, g, etree.Options{MaxWidth: 5})
	runAsymAndCompare(t, an, lu, ref, procgrid.New(3, 3), core.ShiftedBinaryTree, 3)
}

// bothElems factorizes A (real) and A − zI (complex) on one analysis.
func bothElems(t testing.TB, g *sparse.Generated, opt etree.Options) (*etree.Analysis, []*factor.LU) {
	t.Helper()
	an, lu, ref := prepAsym(t, g, opt)
	ref.Release()
	zlu, err := factor.FactorizeShifted(an.A, complex(0.5, 1.5), an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return an, []*factor.LU{lu, zlu}
}

// TestGeneralPlanOnLowerOnlyFactor: a factorization of symmetric values
// stores no U block, and the general plan still runs correctly on it — pass 1
// forms each Û's source from L (factor.LU.UCopy) — for both element types,
// P ∈ {1, 4, 16}, sequential and DAG, within 1e-9 of the reference. (The
// benchmark's traced PEXSI pass binds exactly this pair.)
func TestGeneralPlanOnLowerOnlyFactor(t *testing.T) {
	an, lus := bothElems(t, sparse.DG2D(4, 4, 3, 2), etree.Options{Relax: 2, MaxWidth: 8})
	for _, lu := range lus {
		if !lu.Symmetric {
			t.Fatalf("%s factorization of generated values is not lower-only", lu.Elem)
		}
		ref := selinv.SelInv(lu)
		for _, procs := range []int{1, 4, 16} {
			for _, dag := range []bool{false, true} {
				plan := core.NewPlanConfig(an.BP, procgrid.Squarish(procs), core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 3})
				eng := NewEngine(plan, lu)
				eng.DAG = dag
				res, err := eng.Run(testTimeout)
				if err != nil {
					t.Fatalf("%s P=%d dag=%v: %v", lu.Elem, procs, dag, err)
				}
				if got, want := res.Ainv.NumBlocks(), ref.NumBlocks(); got != want {
					t.Fatalf("%s P=%d dag=%v: %d blocks, want %d", lu.Elem, procs, dag, got, want)
				}
				for _, key := range ref.Keys() {
					if d := res.Ainv.MustGet(key.I, key.J).MaxAbsDiff(ref.MustGet(key.I, key.J)); !(d <= 1e-9) {
						t.Fatalf("%s P=%d dag=%v: block (%d,%d) differs by %g", lu.Elem, procs, dag, key.I, key.J, d)
					}
				}
				res.Release()
			}
		}
		ref.Release()
	}
}

// TestOneRankBitContract pins what is bit-equal to the serial reference: a
// one-rank run of the plan the values select — the general plan on general
// values, where both compute Û from the stored U, and the symmetric plan on
// symmetric values, where both read L̂ᵀ for it and mirror A⁻¹_{J,K} — for both
// element types. (The general plan on symmetric values solves for Û where the
// reference transposes L̂, and agrees to rounding only: the test above.)
// The DG2D case at MaxWidth 48 multiplies blocks of the sizes RunBatch
// issues, so the complex products run the same 1M kernel, blocking and edge
// tiles on both sides.
func TestOneRankBitContract(t *testing.T) {
	for _, tc := range []struct {
		g   *sparse.Generated
		opt etree.Options
	}{
		{sparse.Grid2D(6, 6, 3), etree.Options{Relax: 2, MaxWidth: 6}},
		{sparse.Asymmetrize(sparse.Grid2D(6, 6, 3), 7, 0.4), etree.Options{Relax: 2, MaxWidth: 6}},
		{sparse.DG2D(12, 12, 4, 1), etree.Options{Relax: 4, MaxWidth: 48}},
	} {
		g := tc.g
		an, lus := bothElems(t, g, tc.opt)
		widest := 0
		for k := 0; k < an.BP.NumSnodes(); k++ {
			widest = max(widest, an.BP.Part.Width(k))
		}
		if widest != tc.opt.MaxWidth {
			t.Fatalf("%s: widest supernode %d, want MaxWidth %d", g.Name, widest, tc.opt.MaxWidth)
		}
		for _, lu := range lus {
			ref := selinv.SelInv(lu)
			plan := core.NewPlanConfig(an.BP, procgrid.New(1, 1), core.PlanConfig{Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: lu.Symmetric})
			res, err := NewEngine(plan, lu).Run(testTimeout)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range ref.Keys() {
				got, want := res.Ainv.MustGet(key.I, key.J).Data, ref.MustGet(key.I, key.J).Data
				for x := range want {
					if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
						t.Fatalf("%s %s (symmetric=%v): block (%d,%d) word %d: %x != %x", g.Name, lu.Elem, lu.Symmetric,
							key.I, key.J, x, math.Float64bits(got[x]), math.Float64bits(want[x]))
					}
				}
			}
			res.Release()
			ref.Release()
		}
	}
}

// TestSymmetricPlanOnAsymmetricValuesRejected pins the guard that replaced
// the element-type refusal: the symmetric program mirrors A⁻¹_{J,K} into
// (K,J) and uses L̂ᵀ for Û, so on asymmetric values it would return a wrong
// inverse with every conservation check green. Binding one to the other
// must fail with a symmetryError for real and complex factorizations, on
// the in-process world and on a TCP world alike, before a message is sent;
// the general plan on the same factorizations is what the tests above run.
func TestSymmetricPlanOnAsymmetricValuesRejected(t *testing.T) {
	g := sparse.Asymmetrize(sparse.Grid2D(5, 5, 2), 3, 0.5)
	an, lu, _ := prepAsym(t, g, etree.Options{MaxWidth: 5})
	zlu, err := factor.FactorizeShifted(an.A, complex(0, 1), an.BP)
	if err != nil {
		t.Fatal(err)
	}
	requireRejected := func(label string, elem dense.Elem, err error) {
		t.Helper()
		var se symmetryError
		if !errors.As(err, &se) {
			t.Fatalf("%s: error is %T (%v), want a symmetryError", label, err, err)
		}
		if !strings.Contains(se.Error(), elem.String()+" factorization") {
			t.Fatalf("%s: error %q does not name the %v factorization", label, se, elem)
		}
	}
	for _, f := range []*factor.LU{lu, zlu} {
		if f.Symmetric {
			t.Fatalf("%v factorization of %s recorded symmetric values", f.Elem, g.Name)
		}
		_, err := NewEngine(core.NewPlan(an.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1), f).Run(testTimeout)
		requireRejected("in-process", f.Elem, err)

		l, err := tcptransport.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := l.Connect(tcptransport.Config{Rank: 0, Addrs: []string{l.Addr()}, SetupTimeout: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		world := simmpi.NewWorldOn(tr)
		_, err = NewEngine(core.NewPlan(an.BP, procgrid.New(1, 1), core.ShiftedBinaryTree, 1), f).RunWorld(world, testTimeout)
		world.Close()
		requireRejected("tcp", f.Elem, err)
	}
}
