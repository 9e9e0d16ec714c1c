package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemmRef computes c = alpha*op(a)*op(b) + beta*c with the retained naive
// reference loops (beta applied up front, exactly as Gemm does).
func gemmRef(ta, tb Trans, alpha float64, a, b *Matrix, beta float64, c *Matrix) {
	if beta == 0 {
		c.Zero()
	} else if beta != 1 {
		c.Scale(beta)
	}
	if alpha != 0 {
		gemmNaive(ta, tb, alpha, a, b, c)
	}
}

// tolFor scales the parity tolerance with the summation length: the blocked
// kernel reassociates the k-loop (and may use FMA), so the comparison
// budget grows linearly with the inner dimension.
func tolFor(k int) float64 { return 1e-13 * float64(k+4) }

// TestGemmParityBlockedVsNaive drives the public Gemm (which dispatches to
// the blocked kernel) across shapes, transpose cases and scalar
// combinations, and compares against the naive reference.
func TestGemmParityBlockedVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 2, 4}, {7, 5, 3}, // smaller than a tile
		{8, 4, 16}, {9, 5, 17}, // around the micro-tile
		{31, 33, 29}, {48, 48, 48}, // supernode-sized
		{130, 70, 90}, {129, 131, 257}, // crossing mc/kc block edges
		{64, 200, 300}, {257, 3, 128}, // skinny
	}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []Trans{NoTrans, DoTrans} {
			for _, tb := range []Trans{NoTrans, DoTrans} {
				for _, ab := range [][2]float64{{1, 0}, {-1, 1}, {0.5, -2}, {0, 0.5}} {
					alpha, beta := ab[0], ab[1]
					a := randMat(rng, m, k)
					if ta == DoTrans {
						a = randMat(rng, k, m)
					}
					b := randMat(rng, k, n)
					if tb == DoTrans {
						b = randMat(rng, n, k)
					}
					c0 := randMat(rng, m, n)
					got, want := c0.Clone(), c0.Clone()
					Gemm(ta, tb, alpha, a, b, beta, got)
					gemmRef(ta, tb, alpha, a, b, beta, want)
					if d := got.MaxAbsDiff(want); d > tolFor(k) {
						t.Errorf("m=%d n=%d k=%d ta=%v tb=%v alpha=%g beta=%g: max diff %g",
							m, n, k, ta, tb, alpha, beta, d)
					}
				}
			}
		}
	}
}

func TestGemmEmptyDims(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sh := range [][3]int{{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {0, 0, 0}} {
		m, n, k := sh[0], sh[1], sh[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		c := randMat(rng, m, n)
		want := c.Clone()
		want.Scale(0.5)
		Gemm(NoTrans, NoTrans, 2, a, b, 0.5, c)
		if d := c.MaxAbsDiff(want); d != 0 {
			t.Errorf("empty %v: c changed beyond beta scaling (diff %g)", sh, d)
		}
	}
}

func TestTrsmEmpty(t *testing.T) {
	tri := NewMatrix(0, 0)
	b := NewMatrix(0, 4)
	Trsm(Left, Lower, NoTrans, NonUnit, tri, b) // must not panic
	tri2 := Eye(4)
	b2 := NewMatrix(4, 0)
	Trsm(Left, Lower, NoTrans, NonUnit, tri2, b2)
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	if got := SetWorkers(3); got != 3 || Workers() != 3 {
		t.Errorf("SetWorkers(3) = %d, Workers() = %d", got, Workers())
	}
	if got := SetWorkers(0); got < 1 || Workers() != got {
		t.Errorf("SetWorkers(0) = %d, Workers() = %d", got, Workers())
	}
}

func TestArenaBufClasses(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1000, 1 << 20} {
		s := GetBuf(n)
		if len(s) != n {
			t.Fatalf("GetBuf(%d) len %d", n, len(s))
		}
		if c := cap(s); c&(c-1) != 0 {
			t.Errorf("GetBuf(%d) cap %d not a power of two", n, c)
		}
		PutBuf(s)
	}
}

func TestArenaMatrixZeroedAfterReuse(t *testing.T) {
	m := GetMatrixElem(20, 20, Real)
	for i := range m.Data {
		m.Data[i] = 42
	}
	PutMatrix(m)
	m2 := GetMatrixElem(20, 20, Real)
	defer PutMatrix(m2)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("GetMatrix reuse not zeroed at %d: %g", i, v)
		}
	}
}

func TestGetMatrixCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	src := randMat(rng, 13, 7)
	cp := GetMatrixCopy(src)
	defer PutMatrix(cp)
	if d := cp.MaxAbsDiff(src); d != 0 {
		t.Fatalf("copy differs by %g", d)
	}
	cp.Data[0] = 999
	if src.Data[0] == 999 {
		t.Fatal("copy aliases source")
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, 9, 5)
	tr := GetMatrixUninitElem(5, 9, Real)
	defer PutMatrix(tr)
	a.TransposeInto(tr)
	if d := tr.MaxAbsDiff(a.Transpose()); d != 0 {
		t.Fatalf("TransposeInto differs by %g", d)
	}
}

// BenchmarkGemm runs the public real kernel on the flop-weighted (m, n, k)
// shapes the benchmark harness's gemm_shape_histogram reports for the engine
// at the default MaxWidth of 48 — a full supernode block times a full, a
// typical and two skinny row-block widths — reporting achieved GFLOP/s.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][3]int{{48, 48, 48}, {48, 20, 48}, {48, 8, 48}, {48, 4, 48}} {
		m, n, k := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, n, k), func(b *testing.B) {
			a := randMat(rng, m, k)
			x := randMat(rng, k, n)
			c := NewMatrix(m, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Gemm(NoTrans, NoTrans, 1, a, x, 0, c)
			}
			gf := float64(GemmFlops(m, n, k)) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
	}
}

// BenchmarkTrsm runs the two solves the engine issues — X·L = B against the
// unit-lower factor and U·X = B against the upper — on a full-width (n = 48)
// diagonal block with the engine's right-hand-side counts.
func BenchmarkTrsm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 48
	tri := randDiagDom(rng, n)
	for _, tc := range []struct {
		name string
		side Side
		uplo UpLo
		diag Diag
	}{
		{"right-lower-unit", Right, Lower, Unit},
		{"left-upper-nonunit", Left, Upper, NonUnit},
	} {
		for _, rhs := range []int{4, 20, 48} {
			b.Run(fmt.Sprintf("%s/%dx%d", tc.name, n, rhs), func(b *testing.B) {
				rows, cols := n, rhs
				if tc.side == Right {
					rows, cols = rhs, n
				}
				b0 := randMat(rng, rows, cols)
				x := NewMatrix(rows, cols)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(x.Data, b0.Data)
					Trsm(tc.side, tc.uplo, NoTrans, tc.diag, tri, x)
				}
				gf := float64(TrsmFlops(n, rhs)) * float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(gf, "GFLOP/s")
			})
		}
	}
}
