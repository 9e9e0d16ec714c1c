package dense

import (
	"fmt"
	"math/rand"
	"testing"
)

func randZMat(rng *rand.Rand, m, n int) *Matrix {
	a := NewMatrixElem(m, n, Complex)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

// TestZGemm4MMatchesNaive checks the 4M-split path against the direct
// interleaved loop above the routing threshold. The split reorders the
// real/imaginary summations, so the comparison is at accumulation
// tolerance, not bitwise.
func TestZGemm4MMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const m, n, k = 48, 40, 44 // m·n·k above zGemm4MThreshold
	a := randZMat(rng, m, k)
	b := randZMat(rng, k, n)
	want := NewMatrixElem(m, n, Complex)
	zGemmNaive(NoTrans, NoTrans, 1, a, b, want)
	got := NewMatrixElem(m, n, Complex)
	zGemm4M(NoTrans, NoTrans, 1, a, b, got)
	for i := range want.Data {
		d := want.Data[i] - got.Data[i]
		if d < -1e-10 || d > 1e-10 {
			t.Fatalf("word %d: 4M %g vs naive %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestZGemmTransposeParity runs Gemm on complex operands over all four
// ta/tb combinations, on both sides of zGemm4MThreshold, with empty
// dimensions and at the engine's flop-weighted median shape (m=28, k=44),
// against the op-free naive loop on explicitly transposed copies. The
// transpose is plain: no conjugation. Same accumulation tolerance as the
// 4M check above.
func TestZGemmTransposeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	stored := func(tr Trans, rows, cols int) (m, opm *Matrix) {
		opm = randZMat(rng, rows, cols)
		if tr == NoTrans {
			return opm, opm
		}
		m = NewMatrixElem(cols, rows, Complex)
		opm.TransposeInto(m)
		return m, opm
	}
	for _, sh := range [][3]int{
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {5, 7, 3},
		{28, 28, 44}, {28, 44, 44}, // engine median, 4M side
		{28, 20, 44}, {31, 32, 32}, // naive side
		{32, 32, 32}, {48, 40, 44}, {16, 64, 48},
	} {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []Trans{NoTrans, DoTrans} {
			for _, tb := range []Trans{NoTrans, DoTrans} {
				for _, ab := range [][2]float64{{1, 1}, {-1, 0}, {2, -0.5}} {
					alpha, beta := ab[0], ab[1]
					a, opa := stored(ta, m, k)
					b, opb := stored(tb, k, n)
					got := randZMat(rng, m, n)
					want := got.Clone()
					want.Scale(beta)
					zGemmNaive(NoTrans, NoTrans, alpha, opa, opb, want)
					Gemm(ta, tb, alpha, a, b, beta, got)
					for i := range want.Data {
						if d := want.Data[i] - got.Data[i]; !(d >= -1e-10 && d <= 1e-10) {
							t.Fatalf("%dx%dx%d ta=%v tb=%v alpha=%g beta=%g word %d: got %g, want %g",
								m, n, k, ta, tb, alpha, beta, i, got.Data[i], want.Data[i])
						}
					}
				}
			}
		}
	}
}

// TestZGemmShapeCheckUsesEffectiveDims pins the shape panic to op(a), op(b):
// stored shapes that conform only as stored must panic under a transpose,
// and shapes that conform only transposed must not.
func TestZGemmShapeCheckUsesEffectiveDims(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return false
	}
	z := func(r, c int) *Matrix { return NewMatrixElem(r, c, Complex) }
	for _, tc := range []struct {
		name    string
		ta, tb  Trans
		a, b, c *Matrix
		want    bool
	}{
		{"conforms transposed", DoTrans, NoTrans, z(4, 3), z(4, 2), z(3, 2), false},
		{"same, untransposed", NoTrans, NoTrans, z(4, 3), z(4, 2), z(3, 2), true},
		{"conforms as stored only", DoTrans, NoTrans, z(3, 4), z(4, 2), z(3, 2), true},
		{"b transposed", NoTrans, DoTrans, z(3, 4), z(2, 4), z(3, 2), false},
		{"b conforms as stored only", NoTrans, DoTrans, z(3, 4), z(4, 2), z(3, 2), true},
		{"both transposed", DoTrans, DoTrans, z(4, 3), z(2, 4), z(3, 2), false},
	} {
		if got := panics(func() { Gemm(tc.ta, tc.tb, 1, tc.a, tc.b, 1, tc.c) }); got != tc.want {
			t.Errorf("%s: panicked=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestZTrsmAllVariants solves against a well-conditioned complex triangular
// factor in every side/triangle/diagonal variant and checks the residual of
// the defining equation (Left: T·X = B, Right: X·T = B) with the factor
// made explicit — unit diagonal written out, other triangle zero.
func TestZTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, m = 9, 5
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []UpLo{Lower, Upper} {
			for _, diag := range []Diag{Unit, NonUnit} {
				packed := randZMat(rng, n, n)
				tri := NewMatrixElem(n, n, Complex)
				for j := 0; j < n; j++ {
					packed.ZSet(j, j, packed.ZAt(j, j)+complex(float64(n), 0))
					for i := 0; i < n; i++ {
						switch {
						case i == j && diag == Unit:
							tri.ZSet(i, j, 1)
						case i == j || (i > j) == (uplo == Lower):
							tri.ZSet(i, j, packed.ZAt(i, j))
						}
					}
				}
				rows, cols := n, m
				if side == Right {
					rows, cols = m, n
				}
				b := randZMat(rng, rows, cols)
				x := b.Clone()
				Trsm(side, uplo, NoTrans, diag, packed, x)
				back := NewMatrixElem(rows, cols, Complex)
				if side == Left {
					Gemm(NoTrans, NoTrans, 1, tri, x, 0, back)
				} else {
					Gemm(NoTrans, NoTrans, 1, x, tri, 0, back)
				}
				if d := back.MaxAbsDiff(b); d > 1e-12 {
					t.Errorf("side=%v uplo=%v diag=%v: residual %g", side, uplo, diag, d)
				}
			}
		}
	}
}

// BenchmarkZGemm compares the two complex GEMM strategies: the direct
// interleaved triple loop and the 4M split through the blocked real
// kernels. The split pays two unpacks and four packs but runs the
// cache-blocked (and SIMD, where built) real path — the win that makes the
// complex engine's large supernode products viable. Complex multiply-add
// is 8 real flops.
func BenchmarkZGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{256, 512} {
		a := randZMat(rng, n, n)
		x := randZMat(rng, n, n)
		c := NewMatrixElem(n, n, Complex)
		flops := 8 * int64(n) * int64(n) * int64(n)
		b.Run(fmt.Sprintf("4m/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.Zero()
				zGemm4M(NoTrans, NoTrans, 1, a, x, c)
			}
			gf := float64(flops) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
		b.Run(fmt.Sprintf("naive/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.Zero()
				zGemmNaive(NoTrans, NoTrans, 1, a, x, c)
			}
			gf := float64(flops) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
	}
	// The engine's flop-weighted median complex shape (m=28, k=44, DG2D at
	// MaxWidth 48), through the public entry point: the symmetric program's
	// diagonal contribution L̂ᵀ_{J,K}·A⁻¹_{J,K} is the transposed row, the
	// Row-Reduce products the plain one.
	const m, k = 28, 44
	a, at := randZMat(rng, m, k), randZMat(rng, k, m)
	x := randZMat(rng, k, m)
	c := NewMatrixElem(m, m, Complex)
	for _, row := range []struct {
		name string
		ta   Trans
		a    *Matrix
	}{{"engine-nn", NoTrans, a}, {"engine-tn", DoTrans, at}} {
		b.Run(fmt.Sprintf("%s/%dx%dx%d", row.name, m, m, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Gemm(row.ta, NoTrans, 1, row.a, x, 0, c)
			}
			gf := float64(8*m*m*k) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
	}
}
