package dense

import (
	"fmt"
	"math"
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

// zGemmNaive accumulates c += alpha*op(a)*op(b) with the direct interleaved
// complex triple loop: the test oracle complex Gemm is checked against.
// op(b) is read through a pair of strides; op(a) picks the loop nest that
// walks a's columns contiguously: axpy updates of c's column for a as
// stored, dot products with op(b)'s for a transposed.
func zGemmNaive(ta, tb Trans, alpha float64, a, b, c *Matrix) {
	m, n := c.Rows, c.Cols
	// op(b)(p, j) is the complex element at b.Data[2*(p*bp+j*bj)].
	bp, bj := 1, b.Rows
	if tb == DoTrans {
		bp, bj = b.Rows, 1
	}
	if ta == DoTrans {
		k := a.Rows
		for j := 0; j < n; j++ {
			cj := c.Data[2*j*m : 2*(j+1)*m]
			for i := 0; i < m; i++ {
				ai := a.Data[2*i*k : 2*(i+1)*k]
				var sr, si float64
				for p, bx := 0, 2*j*bj; p < k; p, bx = p+1, bx+2*bp {
					ar, aim := ai[2*p], ai[2*p+1]
					br, bi := b.Data[bx], b.Data[bx+1]
					sr += ar*br - aim*bi
					si += ar*bi + aim*br
				}
				cj[2*i] += alpha * sr
				cj[2*i+1] += alpha * si
			}
		}
		return
	}
	for j := 0; j < n; j++ {
		cj := c.Data[2*j*m : 2*(j+1)*m]
		for p := 0; p < a.Cols; p++ {
			br := alpha * b.Data[2*(p*bp+j*bj)]
			bi := alpha * b.Data[2*(p*bp+j*bj)+1]
			ap := a.Data[2*p*m : 2*(p+1)*m]
			for i := 0; i < m; i++ {
				ar, ai := ap[2*i], ap[2*i+1]
				cj[2*i] += ar*br - ai*bi
				cj[2*i+1] += ar*bi + ai*br
			}
		}
	}
}

// TestZGemmTransposeParity runs complex Gemm — the naive loop for tiny or
// skinny products, the blocked real kernel over the 1M expansion for the
// rest — over all four ta/tb combinations against the op-free interleaved
// oracle on explicitly transposed copies. The transpose is plain: no
// conjugation. The shapes cover empty dimensions, n = 1, odd m, n, k on
// both paths (on the 1M one, the image's mr/nr edge tiles), the engine's
// complex histogram shapes, and m ≥ 65, k ≥ 129, whose doubled real
// dimensions cross blockMC and blockKC. Both paths sum in another order
// than the oracle, so the comparison is at accumulation tolerance.
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
		{0, 3, 4}, {3, 0, 4}, {3, 4, 0}, {1, 1, 1}, {9, 1, 13}, // naive
		{5, 7, 3}, {7, 5, 9}, {5, 7, 11}, {9, 6, 31}, // 1M edge tiles
		{28, 28, 44}, {12, 48, 48}, {4, 48, 48}, {44, 12, 28}, // engine shapes
		{65, 5, 129}, {67, 1, 131}, {131, 9, 263}, // across blockMC, blockKC
	} {
		m, n, k := sh[0], sh[1], sh[2]
		for _, ta := range []Trans{NoTrans, DoTrans} {
			for _, tb := range []Trans{NoTrans, DoTrans} {
				for _, alpha := range []float64{1, -1, 0.5} {
					for _, beta := range []float64{0, 1} {
						a, opa := stored(ta, m, k)
						b, opb := stored(tb, k, n)
						got := randZMat(rng, m, n)
						want := got.Clone()
						if beta == 0 {
							want.Zero()
						}
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
}

// TestOneMBlockingIsEven guards the 1M packs' premise: every real-unit block
// offset (ic, pc, strip start) is even, so no [re −im; im re] block and no
// (re, im) pair of B is ever split across panels or strips.
func TestOneMBlockingIsEven(t *testing.T) {
	for _, c := range []struct {
		name string
		v    int
	}{{"blockMC", blockMC}, {"blockKC", blockKC}, {"mr", mr}} {
		if c.v%2 != 0 {
			t.Errorf("%s = %d is odd", c.name, c.v)
		}
	}
}

// TestPack1MMatchesGo: the strip pack the machine runs (assembly where
// built) writes the same bits as the portable one, signed zeros included.
func TestPack1MMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, ld = 13, 2*mr + 6
	src := make([]float64, (n-1)*ld+mr)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	src[1], src[ld+2] = math.Copysign(0, -1), 0
	got, want := make([]float64, 2*mr*n), make([]float64, 2*mr*n)
	pack1M(n, src, ld, got)
	pack1MGo(n, src, ld, want)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("word %d: %x, want %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestZGemmSteadyStateAllocs: a warm complex Gemm draws its pack buffers
// from the arena and allocates nothing, as the real one does — for A as
// stored and transposed, both packed strip by strip into its 1M image.
func TestZGemmSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tr := range []Trans{NoTrans, DoTrans} {
		a, b := randZMat(rng, 28, 44), randZMat(rng, 44, 28)
		if tr == DoTrans {
			a = randZMat(rng, 44, 28)
		}
		c := NewMatrixElem(28, 28, Complex)
		gemm := func() { Gemm(tr, NoTrans, 1, a, b, 1, c) }
		gemm()
		if n := testing.AllocsPerRun(20, gemm); n != 0 {
			t.Errorf("trans=%v: %.1f allocations per complex Gemm, want 0", tr, n)
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
// factor in every side/triangle/transpose/diagonal variant and checks the
// residual of the defining equation (Left: op(T)·X = B, Right: X·op(T) = B)
// with the factor made explicit — unit diagonal written out, other triangle
// zero — and multiplied by the interleaved oracle, which shares no loop with
// the solve. The orders lie below (9) and across (48, 97) the recursion's
// splits; the residual bound, 1e-12 at n = 9, grows linearly with n.
func TestZTrsmAllVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{9, 48, 97} {
		for _, m := range []int{1, 7, 40} {
			for _, side := range []Side{Left, Right} {
				for _, uplo := range []UpLo{Lower, Upper} {
					for _, tt := range []Trans{NoTrans, DoTrans} {
						for _, diag := range []Diag{Unit, NonUnit} {
							packed := randZMat(rng, n, n)
							packed.Scale(1 / float64(n))
							tri := NewMatrixElem(n, n, Complex)
							for j := 0; j < n; j++ {
								packed.ZSet(j, j, complex(2+rng.Float64(), rng.Float64()))
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
							Trsm(side, uplo, tt, diag, packed, x)
							back := NewMatrixElem(rows, cols, Complex)
							if side == Left {
								zGemmNaive(tt, NoTrans, 1, tri, x, back)
							} else {
								zGemmNaive(NoTrans, tt, 1, x, tri, back)
							}
							if d := back.MaxAbsDiff(b); d > 1e-13*float64(n+1) {
								t.Errorf("n=%d rhs=%d side=%v uplo=%v trans=%v diag=%v: residual %g",
									n, m, side, uplo, tt, diag, d)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkZGemm runs complex Gemm at the shapes the engine issues (DG2D at
// MaxWidth 48): the flop-weighted median (m=28, k=44) plain and with a
// transposed operand — the symmetric program's diagonal contribution
// L̂ᵀ_{J,K}·A⁻¹_{J,K} is the transposed row, the Row-Reduce products the
// plain one — and the top complex histogram shapes. Complex multiply-add is
// 8 real flops.
func BenchmarkZGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, row := range []struct {
		name    string
		ta      Trans
		m, n, k int
	}{
		{"engine-nn", NoTrans, 28, 28, 44},
		{"engine-tn", DoTrans, 28, 28, 44},
		{"engine-nn", NoTrans, 12, 48, 48},
		{"engine-nn", NoTrans, 4, 48, 48},
		{"engine-nn", NoTrans, 44, 12, 28},
	} {
		m, n, k := row.m, row.n, row.k
		a := randZMat(rng, m, k)
		if row.ta == DoTrans {
			a = randZMat(rng, k, m)
		}
		x := randZMat(rng, k, n)
		c := NewMatrixElem(m, n, Complex)
		b.Run(fmt.Sprintf("%s/%dx%dx%d", row.name, m, n, k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Gemm(row.ta, NoTrans, 1, a, x, 0, c)
			}
			gf := float64(8*m*n*k) * float64(b.N) / b.Elapsed().Seconds() / 1e9
			b.ReportMetric(gf, "GFLOP/s")
		})
	}
}
