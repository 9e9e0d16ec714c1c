package sparse

import "testing"

func TestPatternFingerprintValueIndependent(t *testing.T) {
	a := Grid2D(8, 8, 1).A
	b := Grid2D(8, 8, 99).A // same stencil, different values
	if a.PatternFingerprint() != b.PatternFingerprint() {
		t.Fatal("fingerprint depends on values")
	}
	shifted, err := a.ShiftDiagonal(0.75)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.PatternFingerprint() != a.PatternFingerprint() {
		t.Fatal("diagonal shift changed the fingerprint")
	}
}

func TestPatternFingerprintDistinguishesPatterns(t *testing.T) {
	fps := map[string]string{}
	for name, a := range map[string]*CSC{
		"grid2d-8x8":  Grid2D(8, 8, 1).A,
		"grid2d-8x9":  Grid2D(8, 9, 1).A,
		"grid3d-4":    Grid3D(4, 4, 4, 1).A,
		"rand-64-4-1": RandomSym(64, 4, 1).A,
		"rand-64-4-2": RandomSym(64, 4, 2).A, // different seed, different pattern
		"banded":      Banded(64, 3, 1).A,
	} {
		fp := a.PatternFingerprint()
		for other, ofp := range fps {
			if ofp == fp {
				t.Fatalf("%s and %s collide", name, other)
			}
		}
		fps[name] = fp
	}
}

func TestShiftDiagonalValues(t *testing.T) {
	a := RandomSym(40, 4, 3).A
	orig := append([]float64(nil), a.Val...)
	s, err := a.ShiftDiagonal(2.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < a.N; i++ {
		for j := 0; j < a.N; j++ {
			want := a.At(i, j)
			if i == j {
				want += 2.5
			}
			if got := s.At(i, j); got != want {
				t.Fatalf("entry (%d,%d): got %g want %g", i, j, got, want)
			}
		}
	}
	for p, v := range orig {
		if a.Val[p] != v {
			t.Fatal("ShiftDiagonal mutated its receiver")
		}
	}
	// The pattern is shared, the values are not.
	if &s.ColPtr[0] != &a.ColPtr[0] || &s.RowIdx[0] != &a.RowIdx[0] || &s.Val[0] == &a.Val[0] {
		t.Fatal("ShiftDiagonal should share ColPtr and RowIdx and copy Val")
	}
}

func TestShiftDiagonalMissingDiagonal(t *testing.T) {
	a := FromTriplets(2, []Triplet{{0, 0, 1}, {0, 1, 1}, {1, 0, 1}})
	if _, err := a.ShiftDiagonal(1); err == nil {
		t.Fatal("expected error for structurally absent diagonal")
	}
}

// The digest is a cache key that outlives a process (plan caches, staged
// specs), so how the hash is fed may change but the digest may not.
func TestPatternFingerprintPinned(t *testing.T) {
	for _, c := range []struct {
		g    *Generated
		want string
	}{
		{Grid2D(8, 8, 1), "ba29f2ab1dcb12890450682cb0ab04562da02f968766121c6350a18f1c904166"},
		{DG2D(4, 4, 3, 2), "7a8cc3c9cde4bc27dcfe88f35fa770b03aed44e6351639ba0cae0a81194ccc45"},
	} {
		if got := c.g.A.PatternFingerprint(); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.g.Name, got, c.want)
		}
	}
}
