package pselinv

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pselinv/internal/dense"
	"pselinv/internal/factor"
)

// factorizeFn is Factorize or a FactorizeShifted at a fixed pole.
type factorizeFn func(sy *Symbolic, m *Matrix) (*System, error)

func realFactorize(sy *Symbolic, m *Matrix) (*System, error) { return sy.Factorize(m) }

func complexFactorize(sy *Symbolic, m *Matrix) (*System, error) {
	return sy.FactorizeShifted(m, complex(0.3, 0.5))
}

// releaseDiag factorizes m on sy, runs a 4-rank inversion and returns the
// diagonal (as complex numbers, so either element type compares bit for bit)
// and the System, unreleased.
func releaseDiag(t *testing.T, sy *Symbolic, m *Matrix, fz factorizeFn) ([]complex128, *System) {
	t.Helper()
	sys, err := fz(sy, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ParallelSelInv(4, ShiftedBinaryTree, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]complex128, m.N())
	for i := range d {
		d[i], _ = res.EntryComplex(i, i)
	}
	res.Release()
	return d, sys
}

func sameDiag(t *testing.T, got, want []complex128, what string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: diagonal[%d] = %v, want %v bit for bit", what, i, got[i], want[i])
		}
	}
}

// TestReleasedFactorBitIdentical: a factor handed back by Release and
// refactorized with other values by the next Factorize yields the diagonal a
// fresh factor does, bit for bit, for real symmetric, real general and
// complex values.
func TestReleasedFactorBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		m    *Matrix
		fz   factorizeFn
	}{
		{"real-symmetric", DG2D(6, 6, 2, 1), realFactorize},
		{"real-general", DG2D(6, 6, 2, 1).Asymmetrize(3, 0.1), realFactorize},
		{"complex", DG2D(6, 6, 2, 1), complexFactorize},
	}
	for _, c := range cases {
		sy, err := AnalyzePattern(c.m, Options{Ordering: OrderNestedDissection, MaxWidth: 8})
		if err != nil {
			t.Fatal(err)
		}
		want, fresh := releaseDiag(t, sy, c.m, c.fz)
		other, err := c.m.Shifted(0.75)
		if err != nil {
			t.Fatal(err)
		}
		_, sys := releaseDiag(t, sy, other, c.fz)
		lu := sys.lu
		sys.Release()
		got, again := releaseDiag(t, sy, c.m, c.fz)
		if again.lu != lu {
			t.Fatalf("%s: Factorize after Release did not take the released factor", c.name)
		}
		sameDiag(t, got, want, c.name)
		if again.LogAbsDet() != fresh.LogAbsDet() {
			t.Fatalf("%s: LogAbsDet of the recycled factor differs", c.name)
		}
	}
}

// TestReleasedFactorAcrossSymmetry drives one factor through symmetric,
// general and symmetric values again: the general values grow the slab, the
// symmetric ones after them use its prefix, and every diagonal is a fresh
// factor's.
func TestReleasedFactorAcrossSymmetry(t *testing.T) {
	sym, gen := DG2D(6, 6, 2, 1), DG2D(6, 6, 2, 1).Asymmetrize(3, 0.1)
	sy, err := AnalyzePattern(sym, Options{Ordering: OrderNestedDissection, MaxWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	wantSym, _ := releaseDiag(t, sy, sym, realFactorize)
	wantGen, _ := releaseDiag(t, sy, gen, realFactorize)
	var lu *factor.LU
	for i, step := range []struct {
		m    *Matrix
		want []complex128
	}{{sym, wantSym}, {gen, wantGen}, {sym, wantSym}} {
		got, sys := releaseDiag(t, sy, step.m, realFactorize)
		if sys.Symmetric() != (step.m == sym) {
			t.Fatalf("step %d: Symmetric() = %v", i, sys.Symmetric())
		}
		if i > 0 && sys.lu != lu {
			t.Fatalf("step %d did not take the released factor", i)
		}
		sameDiag(t, got, step.want, fmt.Sprintf("step %d", i))
		lu = sys.lu
		sys.Release()
	}
}

// panicsNamingRelease reports whether f panics with an error naming Release.
func panicsNamingRelease(f func()) (ok bool) {
	defer func() {
		err, _ := recover().(error)
		ok = err != nil && strings.Contains(err.Error(), "Release")
	}()
	f()
	return false
}

// TestReleasedSystemFailsLoudly: after Release every method of System fails —
// with an error where it returns one, else by panicking — and none reads the
// factor, which the next Factorize may already be overwriting. The table
// must name every method, so a new one cannot skip the check.
func TestReleasedSystemFailsLoudly(t *testing.T) {
	m := Grid2D(6, 6, 1)
	sys, err := NewSystem(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Release()
	errs := map[string]func() error{
		"SelInv":         func() error { _, err := sys.SelInv(); return err },
		"LogDet":         func() error { _, err := sys.LogDet(); return err },
		"ParallelSelInv": func() error { _, err := sys.ParallelSelInv(4, BinaryTree, 1); return err },
		"ParallelSelInvObserved": func() error {
			_, _, _, err := sys.ParallelSelInvObserved(4, BinaryTree, 1)
			return err
		},
	}
	panics := map[string]func(){
		"Symbolic":       func() { sys.Symbolic() },
		"SetTimeout":     func() { sys.SetTimeout(time.Second) },
		"SetDAG":         func() { sys.SetDAG(true) },
		"Symmetric":      func() { sys.Symmetric() },
		"LogAbsDet":      func() { sys.LogAbsDet() },
		"NumSupernodes":  func() { sys.NumSupernodes() },
		"FactorNNZ":      func() { sys.FactorNNZ() },
		"SimulateTiming": func() { sys.SimulateTiming(4, BinaryTree, SimParams{}) },
		"Release":        func() { sys.Release() },
	}
	typ := reflect.TypeOf(sys)
	for i := 0; i < typ.NumMethod(); i++ {
		name := typ.Method(i).Name
		if f, ok := errs[name]; ok {
			if err := f(); err == nil || !strings.Contains(err.Error(), "Release") {
				t.Errorf("%s after Release: error %v, want one naming Release", name, err)
			}
		} else if f, ok := panics[name]; ok {
			if !panicsNamingRelease(f) {
				t.Errorf("%s after Release did not panic naming Release", name)
			}
		} else {
			t.Errorf("System.%s is missing from the released-System table", name)
		}
	}
	if n := len(errs) + len(panics); n != typ.NumMethod() {
		t.Errorf("table names %d methods, System has %d", n, typ.NumMethod())
	}
}

// TestReleaseKeepsOnlyCleanFactors: a factor is handed back only when every
// run on its System returned without error and none is in flight.
func TestReleaseKeepsOnlyCleanFactors(t *testing.T) {
	m := DG2D(6, 6, 2, 1)
	sy, err := AnalyzePattern(m, Options{Ordering: OrderNestedDissection})
	if err != nil {
		t.Fatal(err)
	}
	kept := func() int {
		sy.mu.Lock()
		defer sy.mu.Unlock()
		return len(sy.free[dense.Real])
	}

	failed, err := sy.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	failed.SetTimeout(time.Nanosecond)
	if _, err := failed.ParallelSelInv(4, ShiftedBinaryTree, 1); err == nil {
		t.Fatal("a 1 ns timeout did not fail the run")
	}
	failed.SetTimeout(time.Minute)
	if _, err := failed.ParallelSelInv(4, ShiftedBinaryTree, 1); err != nil {
		t.Fatal(err)
	}
	failed.Release()
	if n := kept(); n != 0 {
		t.Fatalf("a System whose run failed handed its factor back (%d kept)", n)
	}

	busy, err := sy.Factorize(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := busy.begin(); err != nil { // a run still reading the factor
		t.Fatal(err)
	}
	busy.Release()
	busy.end(nil)
	if n := kept(); n != 0 {
		t.Fatalf("a System released mid-run handed its factor back (%d kept)", n)
	}

	// Clean factors are kept up to the bound.
	var clean []*System
	for range maxFreeFactors + 1 {
		sys, err := sy.Factorize(m)
		if err != nil {
			t.Fatal(err)
		}
		clean = append(clean, sys)
	}
	for _, sys := range clean {
		sys.Release()
	}
	if n := kept(); n != maxFreeFactors {
		t.Fatalf("%d clean factors kept, want the bound %d", n, maxFreeFactors)
	}
}

// TestReleaseConcurrentSystems: two goroutines factorize, invert and release
// on one Symbolic, each taking the factors the other hands back; under -race
// this is the server's two engine slots in miniature. Every diagonal is a
// fresh factor's, bit for bit.
func TestReleaseConcurrentSystems(t *testing.T) {
	m := DG2D(6, 6, 2, 1)
	sy, err := AnalyzePattern(m, Options{Ordering: OrderNestedDissection, MaxWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	shifts := []*Matrix{m, nil, nil, nil}
	want := make([][]complex128, len(shifts))
	for i := range shifts {
		if i > 0 {
			if shifts[i], err = m.Shifted(0.25 * float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		want[i], _ = releaseDiag(t, sy, shifts[i], realFactorize) // fresh factors, never released
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range 6 {
				i := (g + op) % len(shifts)
				sys, err := sy.Factorize(shifts[i])
				if err != nil {
					errs <- err
					return
				}
				res, err := sys.ParallelSelInv(4, ShiftedBinaryTree, 1)
				if err != nil {
					errs <- err
					return
				}
				for j, w := range want[i] {
					if v, _ := res.EntryComplex(j, j); v != w {
						errs <- fmt.Errorf("goroutine %d op %d: diagonal[%d] = %v, want %v", g, op, j, v, w)
						return
					}
				}
				res.Release()
				sys.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
