package pselinv

// End-to-end integration tests: drive the whole public pipeline — generate
// → analyze → factorize → invert (sequential, parallel, simulated, pole
// expansion) — across matrix families, orderings and schemes, asserting
// numerical agreement everywhere. These are the "does the released
// library actually work as documented" tests.

import (
	"math"
	"testing"
)

func TestIntegrationMatrixFamilies(t *testing.T) {
	families := []struct {
		name string
		m    *Matrix
	}{
		{"grid2d", Grid2D(9, 8, 1)},
		{"grid3d", Grid3D(4, 4, 4, 2)},
		{"dg2d", DG2D(4, 4, 4, 3)},
		{"fe3d", FE3D(3, 3, 3, 3, 4)},
		{"banded", Banded(40, 3, 5)},
		{"random", RandomSym(50, 4, 6)},
		{"asym", RandomAsym(40, 4, 7)},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			sys, err := NewSystem(fam.m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := sys.SelInv()
			if err != nil {
				t.Fatal(err)
			}
			par, err := sys.ParallelSelInv(6, ShiftedBinaryTree, 3)
			if err != nil {
				t.Fatal(err)
			}
			n := fam.m.N()
			for i := 0; i < n; i++ {
				sv, ok1 := seq.Entry(i, i)
				pv, ok2 := par.Entry(i, i)
				if !ok1 || !ok2 || math.Abs(sv-pv) > 1e-9 {
					t.Fatalf("diag %d: seq %v/%v par %v/%v", i, sv, ok1, pv, ok2)
				}
			}
			if tr := sys.SimulateTiming(16, BinaryTree, SimParams{}); tr.Seconds <= 0 {
				t.Fatal("degenerate simulated timing")
			}
			if det := sys.LogAbsDet(); math.IsNaN(det) || math.IsInf(det, 0) {
				t.Fatalf("LogAbsDet = %v", det)
			}
		})
	}
}

func TestIntegrationOrderingsAgree(t *testing.T) {
	// All orderings must give the same selected entries on the original
	// indices (the computed pattern differs, but A's own entries are
	// always included).
	m := Grid2D(7, 7, 9)
	ref := map[[2]int]float64{}
	for _, ord := range []OrderingMethod{OrderNatural, OrderRCM, OrderNestedDissection, OrderMinimumDegree} {
		sys, err := NewSystem(m, Options{Ordering: ord})
		if err != nil {
			t.Fatal(err)
		}
		inv, err := sys.SelInv()
		if err != nil {
			t.Fatal(err)
		}
		a := m.gen.A
		for j := 0; j < a.N; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				i := a.RowIdx[k]
				v, ok := inv.Entry(i, j)
				if !ok {
					t.Fatalf("%v: selected entry (%d,%d) missing", ord, i, j)
				}
				key := [2]int{i, j}
				if ref0, seen := ref[key]; seen {
					if math.Abs(v-ref0) > 1e-8 {
						t.Fatalf("%v: entry (%d,%d) = %g disagrees with %g", ord, i, j, v, ref0)
					}
				} else {
					ref[key] = v
				}
			}
		}
	}
}

func TestIntegrationRealVsComplexPoleExpansion(t *testing.T) {
	// The complex pole expansion of a real Hamiltonian must produce a
	// finite density, and with μ ≫ spec(A) the Fermi density is ≈ 1
	// everywhere.
	m := Grid2D(6, 6, 11)
	d, err := FermiOperatorDensity(m, 1.0, 100, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != m.N() {
		t.Fatalf("density length %d, want %d", len(d), m.N())
	}
	for i, v := range d {
		if math.IsNaN(v) || math.Abs(v-1) > 0.25 {
			t.Fatalf("density[%d] = %g, want ≈1", i, v)
		}
	}
}

func TestIntegrationRepeatedRunsIndependent(t *testing.T) {
	// A System must support many parallel runs with differing grids and
	// schemes without cross-contamination.
	m := Grid2D(6, 6, 13)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := sys.SelInv()
	for trial := 0; trial < 6; trial++ {
		procs := []int{1, 2, 4, 6, 9, 12}[trial]
		scheme := []Scheme{FlatTree, BinaryTree, ShiftedBinaryTree}[trial%3]
		par, err := sys.ParallelSelInv(procs, scheme, uint64(trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := 0; i < m.N(); i++ {
			rv, _ := ref.Entry(i, i)
			pv, _ := par.Entry(i, i)
			if math.Abs(rv-pv) > 1e-9 {
				t.Fatalf("trial %d: diag %d drifted", trial, i)
			}
		}
	}
}
