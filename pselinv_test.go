package pselinv

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/dense"
	"pselinv/internal/obs"
	"pselinv/internal/procgrid"
	"pselinv/internal/simmpi"
)

// TestNegativeCoresPerNodeRejected: a negative packing is an analysis
// error, not a topology that puts every rank on one node.
func TestNegativeCoresPerNodeRejected(t *testing.T) {
	_, err := AnalyzePattern(Grid2D(4, 4, 1), Options{CoresPerNode: -5})
	if err == nil || !strings.Contains(err.Error(), "CoresPerNode") {
		t.Fatalf("AnalyzePattern with CoresPerNode -5: %v, want an error naming the field", err)
	}
}

// TestEmptyMatrixRejected: an n = 0 matrix is an analysis error, not a
// panic in the supernode partition.
func TestEmptyMatrixRejected(t *testing.T) {
	m := Grid2D(0, 0, 1)
	if _, err := AnalyzePattern(m, Options{}); err == nil || !strings.Contains(err.Error(), "empty matrix") {
		t.Fatalf("AnalyzePattern: %v, want an empty-matrix error", err)
	}
	if _, err := NewSystem(m, Options{}); err == nil || !strings.Contains(err.Error(), "empty matrix") {
		t.Fatalf("NewSystem: %v, want an empty-matrix error", err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	m := Grid2D(8, 8, 1)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := sys.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	d := inv.Diagonal()
	if len(d) != m.N() {
		t.Fatalf("diagonal length %d, want %d", len(d), m.N())
	}
	for i, v := range d {
		if v <= 0 {
			// A is symmetric diagonally dominant with positive diagonal =>
			// positive definite => positive diagonal inverse entries.
			t.Fatalf("diag[%d] = %g, want > 0", i, v)
		}
	}
}

func TestEntryMatchesDenseInverse(t *testing.T) {
	m := RandomSym(30, 4, 2)
	sys, err := NewSystem(m, Options{Ordering: OrderMinimumDegree})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := sys.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	// Dense inverse in the ORIGINAL ordering.
	want, err := dense.Inverse(m.gen.A.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	a := m.gen.A
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			got, ok := inv.Entry(i, j)
			if !ok {
				t.Fatalf("selected entry (%d,%d) missing", i, j)
			}
			if math.Abs(got-want.At(i, j)) > 1e-8 {
				t.Fatalf("entry (%d,%d): got %g want %g", i, j, got, want.At(i, j))
			}
		}
	}
}

// TestEntryAccessorsFollowElementType: the real accessors refuse a complex
// inverse (they used to read its interleaved storage as real numbers) and
// the complex ones serve a real inverse with a zero imaginary part.
func TestEntryAccessorsFollowElementType(t *testing.T) {
	m := DG2D(6, 6, 2, 1)
	sy, err := AnalyzePattern(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	zsys, err := sy.FactorizeShifted(m, complex(0.1, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	zinv, _ := zsys.SelInv()
	if v, ok := zinv.Entry(1, 1); ok || v != 0 {
		t.Fatalf("Entry(1,1) of a complex inverse = %g, ok=%v; want 0, false", v, ok)
	}
	if v, ok := zinv.EntryComplex(1, 1); !ok || imag(v) == 0 {
		t.Fatalf("EntryComplex(1,1) = %v, ok=%v", v, ok)
	}
	if !zinv.Complex() {
		t.Fatal("Complex() = false on a shifted system's inverse")
	}
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "DiagonalComplex") {
				t.Fatalf("Diagonal of a complex inverse: recovered %v, want a panic naming DiagonalComplex", r)
			}
		}()
		zinv.Diagonal()
	}()

	sys, err := sy.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	inv, _ := sys.SelInv()
	if inv.Complex() {
		t.Fatal("Complex() = true on a real inverse")
	}
	for i, want := range inv.Diagonal() {
		if got, ok := inv.EntryComplex(i, i); !ok || got != complex(want, 0) {
			t.Fatalf("EntryComplex(%d,%d) of a real inverse = %v, ok=%v; want %g", i, i, got, ok, want)
		}
	}
}

func TestEntryOutOfRangeAndOutsidePattern(t *testing.T) {
	m := Banded(12, 1, 3)
	sys, err := NewSystem(m, Options{Ordering: OrderNatural, MaxWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	inv, _ := sys.SelInv()
	if _, ok := inv.Entry(-1, 0); ok {
		t.Fatal("negative index accepted")
	}
	if _, ok := inv.Entry(0, 99); ok {
		t.Fatal("out-of-range index accepted")
	}
	// Entry (0, 11) of a tridiagonal system is far outside the selected
	// pattern under the natural ordering.
	if _, ok := inv.Entry(0, 11); ok {
		t.Fatal("entry far outside the pattern reported as selected")
	}
}

func TestParallelMatchesSequentialPublicAPI(t *testing.T) {
	m := Grid2D(7, 6, 4)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := sys.SelInv()
	for _, scheme := range []Scheme{FlatTree, BinaryTree, ShiftedBinaryTree} {
		par, err := sys.ParallelSelInv(12, scheme, 5)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if par.Procs() != 12 {
			t.Fatalf("Procs = %d", par.Procs())
		}
		a := m.gen.A
		for j := 0; j < a.N; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				i := a.RowIdx[k]
				sv, _ := seq.Entry(i, j)
				pv, ok := par.Entry(i, j)
				if !ok || math.Abs(sv-pv) > 1e-9 {
					t.Fatalf("%v: entry (%d,%d) parallel %g vs sequential %g", scheme, i, j, pv, sv)
				}
			}
		}
	}
}

// parallelRunUnder is ParallelSelInv (ParallelSelInvObserved when observed)
// with the seeded delivery adversary installed on the run's world. The
// adversary is a test tool, not an Option: the System's engine is built as
// parallelRun builds it and run with chaos.Install + RunWorld.
func parallelRunUnder(t *testing.T, s *System, procs int, scheme Scheme, seed, chaosSeed uint64, observed bool) (*ParallelResult, *ObsReport) {
	t.Helper()
	lu, err := s.begin()
	if err != nil {
		t.Fatal(err)
	}
	grid := procgrid.Squarish(procs)
	eng := s.sym.engineTemplate(grid.Pr, grid.Pc, scheme, seed, s.symmetric).Rebind(lu)
	if observed {
		eng.Obs = obs.NewCollector(eng.Plan.PerRankMsgs(), time.Now())
		eng.Obs.SetTopology(s.opt.CoresPerNode)
	}
	eng.DAG = s.opt.DAG
	world := simmpi.NewWorld(grid.Size())
	chaos.Install(chaos.Config{Seed: chaosSeed}, world)
	run, err := eng.RunWorld(world, s.opt.Timeout)
	s.end(err)
	if err != nil {
		world.Close()
		t.Fatalf("chaos seed %d: %v", chaosSeed, err)
	}
	res := &ParallelResult{
		Inverse: &Inverse{an: s.an, ainv: run.Ainv, elem: lu.Elem},
		run:     run,
		grid:    grid,
		Elapsed: run.Elapsed,
	}
	if !observed {
		return res, nil
	}
	merged, err := obs.Merge(run.Snapshots)
	if err != nil {
		res.Release()
		t.Fatal(err)
	}
	return res, &ObsReport{rep: merged.Report(scheme.String())}
}

// TestChaosSeedOptionPublicAPI checks the public API's default path (real,
// symmetric, no DAG) under the delivery adversary: the unperturbed run
// matches the sequential reference, and a run under each of 8 adversary
// seeds (one System per seed, as the retired Options.ChaosSeed knob ran
// them) reproduces the unperturbed run bit for bit — a reduction's fold
// order is a property of the plan, not of delivery.
func TestChaosSeedOptionPublicAPI(t *testing.T) {
	// Narrow supernodes give reductions of three and more contributions
	// per rank, where the order of the additions shows in the last bit.
	m := Grid2D(12, 12, 4)
	sys, err := NewSystem(m, Options{MaxWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := sys.SelInv()
	base, err := sys.ParallelSelInv(9, ShiftedBinaryTree, 5)
	if err != nil {
		t.Fatal(err)
	}
	// eachEntry visits the pattern of A, which the selected inverse covers.
	eachEntry := func(f func(i, j int)) {
		a := m.gen.A
		for j := 0; j < a.N; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				f(a.RowIdx[k], j)
			}
		}
	}
	eachEntry(func(i, j int) {
		sv, _ := seq.Entry(i, j)
		bv, ok := base.Entry(i, j)
		if !ok || math.Abs(sv-bv) > 1e-9 {
			t.Fatalf("entry (%d,%d) parallel %g vs sequential %g", i, j, bv, sv)
		}
	})
	for seed := uint64(70); seed < 78; seed++ {
		chaotic, err := NewSystem(m, Options{MaxWidth: 4})
		if err != nil {
			t.Fatal(err)
		}
		par, _ := parallelRunUnder(t, chaotic, 9, ShiftedBinaryTree, 5, seed, false)
		eachEntry(func(i, j int) {
			bv, _ := base.Entry(i, j)
			pv, ok := par.Entry(i, j)
			if !ok || math.Float64bits(pv) != math.Float64bits(bv) {
				t.Fatalf("chaos seed %d: entry (%d,%d) = %g, unperturbed run has %g — not bit-identical", seed, i, j, pv, bv)
			}
		})
		chaotic.Release()
	}
}

// TestFlagshipComplexDagVolumes runs one pole of the flagship PEXSI
// configuration (DG2D 16×16×4, P=16, shifted trees, complex shift, DAG
// scheduler — the benchmark's pexsi_z16_p16 plan) through the public API and
// pins what its reductions put on the wire: one block per tree edge, so the
// heaviest Row-Reduce receiver gets exactly the plan's 303,360 bytes (a
// tree gather of unsummed contributions would deliver 454,264). The DG
// matrix is symmetric, so A − zI is complex symmetric and the pole runs the
// paper's symmetric path, whose Diag-Bcast and Diag-Reduce carry packed
// lower triangles: 6,963,776 bytes in all and 783,680 from the heaviest
// sender (7,279,104 and 818,688 with whole diagonal blocks; the general plan
// it used to be pinned to moves 12,295,424 and 1,235,968). With -v it prints
// the per-class volume table of EXPERIMENTS.md "One block per edge".
func TestFlagshipComplexDagVolumes(t *testing.T) {
	m := DG2D(16, 16, 4, 1)
	sym, err := AnalyzePattern(m, Options{Ordering: OrderNestedDissection})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sym.FactorizeShifted(m, complex(0, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Symmetric() {
		t.Fatal("shifted system of a symmetric matrix does not take the symmetric path")
	}
	sys.SetDAG(true)
	res, _, rep, err := sys.ParallelSelInvObserved(16, ShiftedBinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	maxRecv := 0.0
	for _, v := range res.RowReduceRecvMB() {
		maxRecv = math.Max(maxRecv, v)
	}
	if maxRecv != 0.303360 {
		t.Errorf("max per-rank Row-Reduce received %.6f MB, want the plan's 0.303360", maxRecv)
	}
	classes := rep.ClassSentBytes()
	names := make([]string, 0, len(classes))
	var total int64
	for name, b := range classes {
		names = append(names, name)
		total += b
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%-12s %9.6f MB", name, float64(classes[name])/1e6)
	}
	t.Logf("%-12s %9.6f MB, heaviest sender %.6f MB, heaviest Row-Reduce receiver %.6f MB",
		"total", float64(total)/1e6, res.MaxSentMB(), maxRecv)
	if total != 6963776 || res.MaxSentMB() != 0.783680 {
		t.Errorf("run moved %d bytes, %.6f MB from the heaviest sender; the symmetric plan moves 6963776 and 0.783680", total, res.MaxSentMB())
	}
}

// TestParallelRankCountBelowOne: a rank count below 1 is an error of both
// parallel runs, not a panic in the grid layout.
func TestParallelRankCountBelowOne(t *testing.T) {
	sys, err := NewSystem(Grid2D(6, 6, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Release()
	for _, procs := range []int{0, -4} {
		if _, err := sys.ParallelSelInv(procs, ShiftedBinaryTree, 1); err == nil {
			t.Errorf("ParallelSelInv(%d) returned no error", procs)
		}
		if _, _, _, err := sys.ParallelSelInvObserved(procs, ShiftedBinaryTree, 1); err == nil {
			t.Errorf("ParallelSelInvObserved(%d) returned no error", procs)
		}
	}
	// The System is still usable.
	res, err := sys.ParallelSelInv(4, ShiftedBinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	res.Release()
}

func TestParallelVolumesExposed(t *testing.T) {
	m := Grid2D(9, 9, 8)
	sys, err := NewSystem(m, Options{MaxWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sys.ParallelSelInv(16, ShiftedBinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pr, pc := par.GridDims(); pr != 4 || pc != 4 {
		t.Fatalf("grid %dx%d", pr, pc)
	}
	cb := par.ColBcastSentMB()
	rr := par.RowReduceRecvMB()
	if len(cb) != 16 || len(rr) != 16 {
		t.Fatal("volume vectors sized wrong")
	}
	sum := 0.0
	for _, v := range cb {
		sum += v
	}
	if sum <= 0 {
		t.Fatal("no Col-Bcast volume")
	}
	if par.MaxSentMB() <= 0 {
		t.Fatal("MaxSentMB not positive")
	}
}

func TestSimulateTiming(t *testing.T) {
	m := Grid2D(10, 10, 1)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := sys.SimulateTiming(64, ShiftedBinaryTree, SimParams{Seed: 2})
	if tr.Seconds <= 0 || tr.Messages <= 0 || tr.Bytes <= 0 {
		t.Fatalf("timing result degenerate: %+v", tr)
	}
	if tr.ComputeSeconds <= 0 || tr.CommSeconds < 0 {
		t.Fatalf("breakdown degenerate: %+v", tr)
	}
}

func TestMatrixMarketRoundTripPublicAPI(t *testing.T) {
	m := RandomSym(20, 3, 7)
	var buf bytes.Buffer
	if err := m.WriteMatrixMarket(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := FromMatrixMarket(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if m2.N() != m.N() || m2.NNZ() != m.NNZ() {
		t.Fatal("round trip changed the matrix")
	}
	if m2.Name() != "roundtrip" {
		t.Fatal("name not set")
	}
}

func TestFromMatrixMarketRejectsStructurallyAsymmetric(t *testing.T) {
	// Entry (2,1) has no structural mirror (1,2): rejected.
	in := "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 2\n2 1 -1\n2 2 2\n"
	if _, err := FromMatrixMarket(bytes.NewReader([]byte(in)), "bad"); err == nil {
		t.Fatal("structurally asymmetric matrix accepted")
	}
}

func TestFromMatrixMarketAcceptsValueAsymmetric(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 4\n2 1 -1\n1 2 -2\n2 2 5\n"
	m, err := FromMatrixMarket(bytes.NewReader([]byte(in)), "asym")
	if err != nil {
		t.Fatal(err)
	}
	if m.IsSymmetric() {
		t.Fatal("value-asymmetric matrix reported symmetric")
	}
}

func TestAsymmetricPublicAPI(t *testing.T) {
	m := RandomAsym(40, 4, 3)
	sys, err := NewSystem(m, Options{Ordering: OrderMinimumDegree, MaxWidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Symmetric() {
		t.Fatal("asymmetric matrix classified as symmetric")
	}
	seq, err := sys.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	par, err := sys.ParallelSelInv(9, ShiftedBinaryTree, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := m.gen.A
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			sv, ok1 := seq.Entry(i, j)
			pv, ok2 := par.Entry(i, j)
			if !ok1 || !ok2 || math.Abs(sv-pv) > 1e-9 {
				t.Fatalf("asym entry (%d,%d): seq %v/%v par %v/%v", i, j, sv, ok1, pv, ok2)
			}
		}
	}
	// Verify against the dense inverse in the original ordering.
	want, err := dense.Inverse(a.ToDense())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < a.N; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowIdx[k]
			pv, _ := par.Entry(i, j)
			if math.Abs(pv-want.At(i, j)) > 1e-8 {
				t.Fatalf("asym entry (%d,%d) wrong vs dense inverse", i, j)
			}
		}
	}
}

func TestAsymmetrizeRoundTrip(t *testing.T) {
	m := Grid2D(6, 6, 1)
	if !m.IsSymmetric() {
		t.Fatal("generator should be symmetric")
	}
	m.Asymmetrize(5, 0.5)
	if m.IsSymmetric() {
		t.Fatal("Asymmetrize left values symmetric")
	}
	sys, err := NewSystem(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Symmetric() {
		t.Fatal("system should use the general path")
	}
}

func TestSystemAccessors(t *testing.T) {
	m := Grid3D(4, 4, 4, 9)
	sys, err := NewSystem(m, Options{Relax: 2, MaxWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumSupernodes() <= 0 {
		t.Fatal("no supernodes")
	}
	if sys.FactorNNZ() < int64(m.NNZ()) {
		t.Fatalf("factor nnz %d below matrix nnz %d", sys.FactorNNZ(), m.NNZ())
	}
}

func TestTracedRunPublicAPI(t *testing.T) {
	m := Grid2D(8, 8, 2)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, rep, orep, err := sys.ParallelSelInvObserved(9, ShiftedBinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	if par.Procs() != 9 {
		t.Fatalf("procs %d", par.Procs())
	}
	// The observed run's two artifacts land under the scheme's file name.
	paths, err := orep.WriteArtifacts(t.TempDir(), rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || filepath.Base(paths[0]) != "obs-shifted-binary-tree.json" ||
		filepath.Base(paths[1]) != "trace-shifted-binary-tree.json" {
		t.Fatalf("artifacts %v", paths)
	}
	for _, p := range paths {
		if st, err := os.Stat(p); err != nil || st.Size() < 10 {
			t.Fatalf("artifact %s: %v", p, err)
		}
	}
	var buf bytes.Buffer
	if err := rep.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 10 {
		t.Fatal("empty chrome trace")
	}
	if rep.Summary() == "" {
		t.Fatal("empty trace summary")
	}
}

func TestFermiOperatorDensityPublicAPI(t *testing.T) {
	m := Grid2D(4, 4, 8)
	// μ far above the (positive, bounded) spectrum: all states occupied.
	d, err := FermiOperatorDensity(m, 0.5, 200, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != m.N() {
		t.Fatalf("density length %d", len(d))
	}
	for i, v := range d {
		if math.Abs(v-1) > 0.2 {
			t.Fatalf("density[%d] = %g, want ≈1 for μ ≫ spec(A)", i, v)
		}
	}
}
