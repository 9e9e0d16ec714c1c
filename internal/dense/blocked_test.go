package dense

import (
	"fmt"
	"math/rand"
	"sync"
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
// the blocked, possibly parallel kernel) across shapes, transpose cases and
// scalar combinations, and compares against the naive reference.
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

// TestTrsmParityBlockedVsNaive forces the blocked triangular solve (order
// above trsmBlockN) in all side/uplo/trans/diag combinations and compares
// against the retained scalar reference.
func TestTrsmParityBlockedVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{trsmBlockN + 5, 2*trsmNB + 17} {
		// Off-diagonals scaled by 1/n keep the solve well conditioned for
		// both diagonal conventions (a random unit triangle would be
		// exponentially ill-conditioned and any two summation orders would
		// legitimately diverge).
		tri := randMat(rng, n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i == j {
					tri.Set(i, j, 2)
				} else {
					tri.Set(i, j, tri.At(i, j)/float64(n))
				}
			}
		}
		for _, rhs := range []int{1, 7, 40} {
			for _, side := range []Side{Left, Right} {
				br, bc := n, rhs
				if side == Right {
					br, bc = rhs, n
				}
				b := randMat(rng, br, bc)
				for _, uplo := range []UpLo{Lower, Upper} {
					for _, tt := range []Trans{NoTrans, DoTrans} {
						for _, diag := range []Diag{NonUnit, Unit} {
							got, want := b.Clone(), b.Clone()
							Trsm(side, uplo, tt, diag, tri, got)
							nrhs := bc
							if side == Right {
								nrhs = br
							}
							trsmNaive(side, uplo, tt, diag, tri, want, 0, nrhs)
							scale := want.MaxAbs()
							if scale < 1 {
								scale = 1
							}
							if d := got.MaxAbsDiff(want) / scale; d > tolFor(n) {
								t.Errorf("n=%d rhs=%d side=%v uplo=%v tt=%v diag=%v: max diff %g",
									n, rhs, side, uplo, tt, diag, d)
							}
						}
					}
				}
			}
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

// TestGemmParallelWorkers exercises the worker-pool dispatch path (flops
// above parallelGemmFlops) with several pool degrees and with concurrent
// callers, as the engine's rank goroutines produce; run under -race this
// doubles as the pool's race test.
func TestGemmParallelWorkers(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(10))
	const n = 160 // 2n³ ≈ 8.2M flops > parallelGemmFlops
	a, b := randMat(rng, n, n), randMat(rng, n, n)
	want := NewMatrix(n, n)
	gemmRef(NoTrans, NoTrans, 1, a, b, 0, want)
	for _, workers := range []int{1, 2, 4} {
		SetWorkers(workers)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewMatrix(n, n)
				Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
				if d := c.MaxAbsDiff(want); d > tolFor(n) {
					t.Errorf("workers=%d: max diff %g", workers, d)
				}
			}()
		}
		wg.Wait()
	}
}

// TestTrsmParallelStripes checks that striping right-hand sides across the
// pool leaves the solution bitwise identical to the serial path.
func TestTrsmParallelStripes(t *testing.T) {
	defer SetWorkers(0)
	rng := rand.New(rand.NewSource(11))
	const n = 256 // n²·rhs = 16.7M flops > parallelTrsmFlops
	tri := randDiagDom(rng, n)
	b := randMat(rng, n, n)
	serial := b.Clone()
	SetWorkers(1)
	Trsm(Left, Lower, NoTrans, NonUnit, tri, serial)
	striped := b.Clone()
	SetWorkers(4)
	Trsm(Left, Lower, NoTrans, NonUnit, tri, striped)
	if d := striped.MaxAbsDiff(serial); d != 0 {
		t.Errorf("striped solve differs from serial by %g (want bitwise identity)", d)
	}
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
	m := GetMatrix(20, 20)
	for i := range m.Data {
		m.Data[i] = 42
	}
	PutMatrix(m)
	m2 := GetMatrix(20, 20)
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
	tr := GetMatrixUninit(5, 9)
	defer PutMatrix(tr)
	a.TransposeInto(tr)
	if d := tr.MaxAbsDiff(a.Transpose()); d != 0 {
		t.Fatalf("TransposeInto differs by %g", d)
	}
}

// BenchmarkGemm sweeps square and skinny shapes through the public kernel,
// reporting achieved GFLOP/s; BenchmarkGemmNaive is the retained reference
// kernel at one size for before/after comparison.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{
		{64, 64, 64}, {128, 128, 128}, {256, 256, 256},
		{512, 512, 512}, {1024, 1024, 1024},
		{1024, 64, 1024}, {64, 1024, 64},
	}
	for _, sh := range shapes {
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

func BenchmarkGemmNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 512
	a := randMat(rng, n, n)
	x := randMat(rng, n, n)
	c := NewMatrix(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Zero()
		gemmNaive(NoTrans, NoTrans, 1, a, x, c)
	}
	gf := float64(GemmFlops(n, n, n)) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOP/s")
}

func BenchmarkTrsmBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 512
	tri := randDiagDom(rng, n)
	rhs := randMat(rng, n, n)
	x := NewMatrix(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x.Data, rhs.Data)
		Trsm(Left, Lower, NoTrans, NonUnit, tri, x)
	}
	gf := float64(TrsmFlops(n, n)) * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GFLOP/s")
}
