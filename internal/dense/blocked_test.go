package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gemmNaive computes c += alpha*op(a)*op(b) for whole matrices with the
// naive loops: the executable specification the blocked kernel is
// property-tested against.
func gemmNaive(ta, tb Trans, alpha float64, a, b, c *Matrix) {
	// op(b)(p, j) is element p*bp+j*bj of b.
	bp, bj := 1, b.Rows
	if tb == DoTrans {
		bp, bj = b.Rows, 1
	}
	k := a.Cols
	if ta == DoTrans {
		k = a.Rows
	}
	if c.Elem == Complex {
		naiveLoops(complex(alpha, 0), complexView(a.Data), a.Rows, ta == DoTrans, complexView(b.Data), bp, bj,
			complexView(c.Data), c.Rows, c.Rows, c.Cols, k)
		return
	}
	naiveLoops(alpha, a.Data, a.Rows, ta == DoTrans, b.Data, bp, bj, c.Data, c.Rows, c.Rows, c.Cols, k)
}

// trsmScalar is the substitution Trsm ran before it recursed onto the GEMM
// kernel, kept as the oracle for it: b rows×cols, op(t)(i, j) is
// t[i*rs+j*cs], and each side walks the unknowns in dependency order.
func trsmScalar[T float64 | complex128](side Side, lower, unit bool, t []T, rs, cs int, b []T, rows, cols int) {
	if side == Left {
		n := rows
		for j := 0; j < cols; j++ {
			x := b[j*rows : (j+1)*rows]
			for step := 0; step < n; step++ {
				i, k0, k1 := step, 0, step
				if !lower {
					i, k0, k1 = n-1-step, n-step, n
				}
				s := x[i]
				for k := k0; k < k1; k++ {
					s -= t[i*rs+k*cs] * x[k]
				}
				if !unit {
					s /= t[i*(rs+cs)]
				}
				x[i] = s
			}
		}
		return
	}
	n := cols
	for step := 0; step < n; step++ {
		j, k0, k1 := step, 0, step
		if lower {
			j, k0, k1 = n-1-step, n-step, n
		}
		xj := b[j*rows : (j+1)*rows]
		for k := k0; k < k1; k++ {
			tkj := t[k*rs+j*cs]
			xk := b[k*rows:][:len(xj)]
			for i, v := range xk {
				xj[i] -= tkj * v
			}
		}
		if !unit {
			d := t[j*(rs+cs)]
			for i := range xj {
				xj[i] /= d
			}
		}
	}
}

// TestTrsmMatchesScalar: the recursive Trsm agrees with the scalar
// substitution in every side/triangle/transpose/diagonal variant and both
// element types, at orders below, at and across the recursion's splits,
// to within the rounding of the reassociated sums.
func TestTrsmMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, elem := range []Elem{Real, Complex} {
		for _, sz := range [][2]int{{1, 3}, {4, 5}, {5, 1}, {9, 7}, {17, 4}, {48, 20}, {97, 40}} {
			n, m := sz[0], sz[1]
			tri := wellCondTri(rng, n)
			if elem == Complex {
				tri = randZMat(rng, n, n)
				tri.Scale(1 / float64(n))
				for j := 0; j < n; j++ {
					tri.ZSet(j, j, complex(2+rng.Float64(), rng.Float64()))
				}
			}
			for _, side := range []Side{Left, Right} {
				rows, cols := n, m
				if side == Right {
					rows, cols = m, n
				}
				b := randMat(rng, rows, cols*elem.Width())
				b.Rows, b.Cols, b.Elem = rows, cols, elem
				for _, uplo := range []UpLo{Lower, Upper} {
					for _, tt := range []Trans{NoTrans, DoTrans} {
						for _, dg := range []Diag{NonUnit, Unit} {
							got, want := b.Clone(), b.Clone()
							Trsm(side, uplo, tt, dg, tri, got)
							lower, rs, cs := (uplo == Lower) != (tt == DoTrans), 1, n
							if tt == DoTrans {
								rs, cs = n, 1
							}
							if elem == Complex {
								trsmScalar(side, lower, dg == Unit, complexView(tri.Data), rs, cs, complexView(want.Data), rows, cols)
							} else {
								trsmScalar(side, lower, dg == Unit, tri.Data, rs, cs, want.Data, rows, cols)
							}
							if d := got.MaxAbsDiff(want); d > tolFor(n)*(1+want.MaxAbs()) {
								t.Errorf("%s n=%d rhs=%d side=%v uplo=%v trans=%v diag=%v: max diff %g",
									elem, n, m, side, uplo, tt, dg, d)
							}
						}
					}
				}
			}
		}
	}
}

// TestMicroKernelMatchesGo: the kernel the machine runs (assembly where
// built) and the portable one agree, for packed strides and for operands
// read in place with odd leading dimensions — untransposed and transposed
// B — at k lengths from none to a whole blockKC panel. Both sum in the same
// order; the assembly fuses each multiply-add and the Go loop need not, so
// a word may differ by the product roundings, at most kc+2 units of
// 2⁻⁵³ of its magnitude sum |c| + |alpha|·Σ|a·b| each way.
func TestMicroKernelMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const alpha = -0.75
	for _, kc := range []int{0, 1, 7, 48, 256} {
		for _, st := range []struct {
			name            string
			as, bk, bj, ldc int
		}{
			{"packed", mr, nr, 1, mr},
			{"in place", 13, 1, 11, 9},
			{"in place, B transposed", 17, 15, 1, 11},
		} {
			fill := func(n int) []float64 {
				s := make([]float64, n)
				for i := range s {
					s[i] = rng.NormFloat64()
				}
				return s
			}
			a, b := fill(kc*st.as+mr), fill(kc*st.bk+(nr-1)*st.bj+1)
			got := fill((nr-1)*st.ldc + mr)
			want := append([]float64(nil), got...)
			mag := append([]float64(nil), got...)
			microKernel(kc, alpha, a, st.as, b, st.bk, st.bj, got, st.ldc)
			microKernelGo(kc, alpha, a, st.as, b, st.bk, st.bj, want, st.ldc)
			for j := 0; j < nr; j++ {
				for i := 0; i < mr; i++ {
					w := j*st.ldc + i
					sum := math.Abs(mag[w])
					for p := 0; p < kc; p++ {
						sum += math.Abs(alpha * a[p*st.as+i] * b[p*st.bk+j*st.bj])
					}
					if d := math.Abs(got[w] - want[w]); d > float64(kc+2)*0x1p-52*sum {
						t.Fatalf("kc=%d %s: word %d: %g, want %g (|Δ| %g, magnitude %g)",
							kc, st.name, w, got[w], want[w], d, sum)
					}
				}
			}
		}
	}
}

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
		{5, 48, 48}, {48, 2, 48}, {48, 1, 48}, // an edge strip packed: m < mr, n < nr
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
	for _, tc := range []struct{ n, cap int }{
		{1, 4}, {3, 4}, {4, 4}, {5, 8}, {63, 64}, {64, 64}, {65, 128}, {1000, 1024}, {1 << 20, 1 << 20},
	} {
		s := GetBuf(tc.n)
		if len(s) != tc.n {
			t.Fatalf("GetBuf(%d) len %d", tc.n, len(s))
		}
		if c := cap(s); c&(c-1) != 0 {
			t.Errorf("GetBuf(%d) cap %d not a power of two", tc.n, c)
		} else if c != tc.cap {
			t.Errorf("GetBuf(%d) cap %d, want its class's %d", tc.n, c, tc.cap)
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
// typical and two skinny row-block widths — reporting achieved GFLOP/s. The
// single column (48×1×48) is the skinny shape the naive-loop rule decides.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, sh := range [][3]int{{48, 48, 48}, {48, 20, 48}, {48, 8, 48}, {48, 4, 48}, {48, 1, 48}} {
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

// BenchmarkTrsm runs the solves the system issues on a full-width (n = 48)
// diagonal block with the engine's right-hand-side counts: the engine's
// X·L = B against the unit-lower factor and U·X = B against the upper, the
// factorization's X·U = B and L·X = B, and the engine's two in complex.
func BenchmarkTrsm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 48
	for _, tc := range []struct {
		name string
		side Side
		uplo UpLo
		diag Diag
		elem Elem
	}{
		{"right-lower-unit", Right, Lower, Unit, Real},
		{"left-upper-nonunit", Left, Upper, NonUnit, Real},
		{"right-upper-nonunit", Right, Upper, NonUnit, Real},
		{"left-lower-unit", Left, Lower, Unit, Real},
		{"right-lower-unit-complex", Right, Lower, Unit, Complex},
		{"left-upper-nonunit-complex", Left, Upper, NonUnit, Complex},
	} {
		tri := randDiagDom(rng, n)
		if tc.elem == Complex {
			tri = randZMat(rng, n, n)
			for j := 0; j < n; j++ {
				tri.ZSet(j, j, tri.ZAt(j, j)+complex(float64(n), 0))
			}
		}
		for _, rhs := range []int{4, 20, 48} {
			b.Run(fmt.Sprintf("%s/%dx%d", tc.name, n, rhs), func(b *testing.B) {
				rows, cols := n, rhs
				if tc.side == Right {
					rows, cols = rhs, n
				}
				b0 := randMat(rng, rows, cols*tc.elem.Width())
				x := NewMatrixElem(rows, cols, tc.elem)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					copy(x.Data, b0.Data)
					Trsm(tc.side, tc.uplo, NoTrans, tc.diag, tri, x)
				}
				flops := TrsmFlops(n, rhs) * int64(tc.elem.Width()*tc.elem.Width())
				gf := float64(flops) * float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(gf, "GFLOP/s")
			})
		}
	}
}
