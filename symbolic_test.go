package pselinv

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// symDiagClose fails unless the two diagonals agree to tol.
func symDiagClose(t *testing.T, got, want []float64, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: diagonal length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: diagonal[%d] = %g, want %g", what, i, got[i], want[i])
		}
	}
}

func TestSymbolicFactorizeMatchesNewSystem(t *testing.T) {
	m := RandomSym(200, 5, 3)
	sy, err := AnalyzePattern(m, Options{MaxWidth: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sy.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(m, Options{MaxWidth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Symbolic() == nil || fresh.Symbolic() == nil {
		t.Fatal("System.Symbolic is nil")
	}
	a, err := sys.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	// Identical inputs through the identical sequential pipeline: bit-equal.
	symDiagClose(t, a.Diagonal(), b.Diagonal(), 0, "shared-symbolic vs fresh")
	if sys.LogAbsDet() != fresh.LogAbsDet() {
		t.Fatal("LogAbsDet differs between shared-symbolic and fresh systems")
	}
}

func TestSymbolicReuseAcrossShiftedValues(t *testing.T) {
	m := RandomSym(150, 5, 7)
	sy, err := AnalyzePattern(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := m.Shifted(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Fingerprint() != m.Fingerprint() {
		t.Fatal("shift changed the fingerprint")
	}
	sys2, err := sy.Factorize(m2)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sys2.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	par, err := sys2.ParallelSelInv(9, ShiftedBinaryTree, 2)
	if err != nil {
		t.Fatal(err)
	}
	symDiagClose(t, par.Diagonal(), seq.Diagonal(), 1e-9, "parallel vs sequential on shifted matrix")
	// Cross-check one entry against a fresh full pipeline on the shifted
	// matrix: the reused analysis must not leak stale values.
	fresh, err := NewSystem(m2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fresh.SelInv()
	if err != nil {
		t.Fatal(err)
	}
	symDiagClose(t, seq.Diagonal(), fs.Diagonal(), 0, "reused analysis vs fresh analysis")
}

func TestSymbolicFactorizeRejectsPatternMismatch(t *testing.T) {
	sy, err := AnalyzePattern(RandomSym(100, 4, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sy.Factorize(RandomSym(100, 4, 2)); err == nil {
		t.Fatal("expected fingerprint mismatch error")
	}
	if _, err := sy.Factorize(Grid2D(10, 10, 1)); err == nil {
		t.Fatal("expected fingerprint mismatch error for different generator")
	}
}

// TestSymbolicConcurrentRuns exercises the shared plan/engine-template
// cache from concurrent systems: several goroutines run parallel selected
// inversions of different-valued same-pattern systems (some traced, mixed
// grids and schemes) built from one Symbolic. Run under -race this is the
// server's steady state in miniature.
func TestSymbolicConcurrentRuns(t *testing.T) {
	m := Grid2D(12, 12, 1)
	sy, err := AnalyzePattern(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shifts := []float64{0, 0.3, 0.7, 1.1}
	systems := make([]*System, len(shifts))
	want := make([][]float64, len(shifts))
	for i, sh := range shifts {
		mi, err := m.Shifted(sh)
		if err != nil {
			t.Fatal(err)
		}
		if systems[i], err = sy.Factorize(mi); err != nil {
			t.Fatal(err)
		}
		seq, err := systems[i].SelInv()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = seq.Diagonal()
	}
	schemes := []Scheme{FlatTree, BinaryTree, ShiftedBinaryTree}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for rep := 0; rep < 2; rep++ {
		for i := range systems {
			wg.Add(1)
			go func(i, rep int) {
				defer wg.Done()
				sys := systems[i]
				var diag []float64
				if rep == 0 {
					res, tr, _, err := sys.ParallelSelInvObserved(9, schemes[i%len(schemes)], uint64(i+1))
					if err != nil {
						errs <- err
						return
					}
					if tr.Summary() == "" {
						errs <- errTraceEmpty
						return
					}
					diag = res.Diagonal()
				} else {
					res, err := sys.ParallelSelInv(16, schemes[(i+1)%len(schemes)], uint64(i+1))
					if err != nil {
						errs <- err
						return
					}
					diag = res.Diagonal()
				}
				for j := range diag {
					if math.Abs(diag[j]-want[i][j]) > 1e-9 {
						errs <- errDiagMismatch
						return
					}
				}
			}(i, rep)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var (
	errTraceEmpty   = errNew("trace summary empty")
	errDiagMismatch = errNew("concurrent run diagonal mismatch")
)

type errNew string

func (e errNew) Error() string { return string(e) }

// The memoized fingerprint a Shifted copy inherits must be the digest a
// fresh hash of the shifted matrix gives, whether or not the original had
// been hashed before the copy was made.
func TestShiftedFingerprintMatchesFreshHash(t *testing.T) {
	for _, hashFirst := range []bool{true, false} {
		m := DG2D(5, 4, 3, 2)
		if hashFirst {
			m.Fingerprint()
		}
		sh, err := m.Shifted(0.75)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sh.Fingerprint(), sh.gen.A.PatternFingerprint(); got != want {
			t.Fatalf("hashFirst=%v: Shifted(σ).Fingerprint() = %s, fresh hash %s", hashFirst, got, want)
		}
		if sh.Fingerprint() != m.Fingerprint() {
			t.Fatalf("hashFirst=%v: shift changed the fingerprint", hashFirst)
		}
	}
}

// TestShiftedSharesPattern: Shifted copies nothing — the result aliases the
// source's ColPtr, RowIdx and values, records σ instead, and leaves the
// source's values untouched; the two fingerprints are equal.
func TestShiftedSharesPattern(t *testing.T) {
	m := DG2D(4, 4, 2, 3)
	orig := append([]float64(nil), m.gen.A.Val...)
	sh, err := m.Shifted(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.gen.A, sh.gen.A
	if &a.ColPtr[0] != &b.ColPtr[0] || &a.RowIdx[0] != &b.RowIdx[0] {
		t.Fatal("Shifted copied the pattern instead of sharing it")
	}
	if &a.Val[0] != &b.Val[0] || sh.sigma != 0.5 {
		t.Fatalf("Shifted copied the values (σ recorded: %g)", sh.sigma)
	}
	for p, v := range orig {
		if a.Val[p] != v {
			t.Fatalf("Shifted changed the source's value %d", p)
		}
	}
	if sh.Fingerprint() != m.Fingerprint() {
		t.Fatal("Shifted changed the fingerprint")
	}
}

// TestWarmRefactorizeAllocBudget holds the benchmark's warm_dg2d_p16 op
// (nested-dissection ordering, as bench/ runs it) to an allocation budget. On
// a warm Symbolic the sparse front end copies nothing — Shifted records σ and
// the values go straight into the factor slab through the analysis's scatter
// map, which adds it — the factorization of the symmetric values stores the
// lower half of the factor layout only, into the slab the previous op's
// System.Release handed back, and the engine runs on the template's recycled
// slot state and on inbox rings off simmpi's free list (6.9 MB/op with a permutation per factorization
// and a deep-copying Shifted, 3.7 with the copy and rings grown per run, 2.7
// without, 0.46–0.55 with the slab recycled, 0.32–0.41 since the dense arena
// keeps its blocks across collections, 0.16–0.19 — with the race detector
// too — since the selected inverse is a slice on the pattern's slots, not a
// map, and 0.09–0.18 since the symmetry check reads the scatter map's mirror
// positions instead of copying ColPtr). The budget leaves about a fifth on
// top.
func TestWarmRefactorizeAllocBudget(t *testing.T) {
	const budgetMB = 0.21
	m := DG2D(24, 24, 4, 1)
	sym, err := AnalyzePattern(m, Options{Ordering: OrderNestedDissection})
	if err != nil {
		t.Fatal(err)
	}
	op := func(i int) {
		if err := warmRefactorize(sym, m, 0.5+float64(i)/8); err != nil {
			t.Fatal(err)
		}
	}
	op(0) // builds and caches the engine template
	const ops = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / ops / 1e6; mb > budgetMB {
		t.Fatalf("warm refactorize allocates %.2f MB/op, budget %.2f", mb, budgetMB)
	} else {
		t.Logf("warm refactorize: %.2f MB/op", mb)
	}
}

// TestFactorizeRejectsNonFinitePivot: a NaN or Inf that reaches a pivot is a
// factorization error naming the supernode, not a System whose inverse is
// garbage (NaN compares false against the tiny-pivot threshold, so the old
// guard let it through and the daemon answered 200).
func TestFactorizeRejectsNonFinitePivot(t *testing.T) {
	m := Grid2D(6, 6, 1)
	sym, err := AnalyzePattern(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sigma := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad, err := m.Shifted(sigma)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sym.Factorize(bad); err == nil || !strings.Contains(err.Error(), "supernode") {
			t.Errorf("Factorize(A + %gI) = %v, want a pivot error naming the supernode", sigma, err)
		}
	}
	for _, z := range []complex128{complex(math.NaN(), 1), complex(0, math.NaN()), complex(math.Inf(1), 1)} {
		if _, err := sym.FactorizeShifted(m, z); err == nil || !strings.Contains(err.Error(), "supernode") {
			t.Errorf("FactorizeShifted(A − %vI) = %v, want a pivot error naming the supernode", z, err)
		}
	}
	if _, err := sym.Factorize(m); err != nil {
		t.Fatalf("the clean matrix no longer factorizes: %v", err)
	}
}

// TestSymbolicHoldsNoMatrix: a Symbolic keeps the pattern's analysis and the
// scatter map its factorizations read values through, not the permuted copy
// of the first matrix that the symbolic phase produced — a plan cache of
// Symbolics would otherwise hold one matrix of values each.
func TestSymbolicHoldsNoMatrix(t *testing.T) {
	sym, err := AnalyzePattern(DG2D(6, 6, 2, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sym.an.A != nil {
		t.Fatalf("the Symbolic holds a %d×%d permuted matrix", sym.an.A.N, sym.an.A.N)
	}
}
