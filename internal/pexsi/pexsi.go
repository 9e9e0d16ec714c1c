// Package pexsi implements the pole-expansion driver that motivates the
// paper: electronic-structure calculations approximate the density matrix
// of a Hamiltonian H as a weighted sum of selected inverses of shifted
// systems,
//
//	diag f(H) ≈ 1/2 + Σₗ Re wₗ · diag( (H − zₗ I)⁻¹ ),
//
// with the selected inversions for different poles carried out
// simultaneously on independent processor subgroups (§V: "multiple
// selected inversions are carried out simultaneously on different
// subgroups of processors").
//
// The zₗ are the complex poles of a rational approximation of the
// Fermi–Dirac function f. Two drivers share one analysis per run and one
// per-pole body (invert on the serial reference or the engine, read the
// weighted diagonal, release) and differ only in scheduling: RunComplex
// takes the poles one after the other or one goroutine per pole, RunBatch
// pipelines the factorization of pole l+1 with the inversion of pole l.
package pexsi

import (
	"fmt"
	"sync"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/exp"
	"pselinv/internal/factor"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/selinv"
	"pselinv/internal/sparse"
)

// poleSolver is what the poles of one expansion share: every shifted
// system has H's sparsity pattern, so the analysis is done once, and runs
// on more than one rank use one engine template (plan and per-rank
// programs) that each pole rebinds to its own factorization.
type poleSolver struct {
	an      *etree.Analysis
	h       *sparse.CSC
	sc      *factor.Scatter // h's entries → the factor layout, once per run
	tmpl    *pselinv.Engine // nil: the serial reference inverts
	path    string          // the results' Path
	dag     bool
	timeout time.Duration
}

// newPoleSolver analyzes h and, for procs > 1, builds the engine template on
// the plan h's values select: a diagonal shift keeps their symmetry.
func newPoleSolver(h *sparse.Generated, relax, maxWidth, procs int, pc core.PlanConfig, dag bool, timeout time.Duration) (*poleSolver, error) {
	if h.A.N == 0 {
		return nil, fmt.Errorf("pexsi: %s: empty matrix", h.Name)
	}
	if timeout == 0 {
		timeout = 5 * time.Minute
	}
	pattern := &sparse.CSC{N: h.A.N, ColPtr: h.A.ColPtr, RowIdx: h.A.RowIdx} // all the analysis permutes: values reach a factor through sc
	an := exp.PrepareSymbolic(&sparse.Generated{Name: h.Name, Geom: h.Geom, A: pattern}, relax, maxWidth).An
	sc, err := factor.NewScatter(h.A, an.PermTotal, an.BP)
	if err != nil {
		return nil, fmt.Errorf("pexsi: %s: %w", h.Name, err)
	}
	s := &poleSolver{an: an, h: h.A, sc: sc, path: "serial", dag: dag, timeout: timeout}
	if procs > 1 {
		pc.Symmetric = h.A.IsSymmetric(0)
		s.path = map[bool]string{true: "symmetric", false: "general"}[pc.Symmetric]
		s.tmpl = pselinv.NewEngine(core.NewPlanConfig(s.an.BP, procgrid.Squarish(procs), pc), nil)
	}
	return s, nil
}

// accumulate inverts one factorized pole — on the engine template, or on
// the serial reference the engine agrees with to rounding — adds the real
// part of weight × the inverse's diagonal to acc in the original ordering,
// and returns the inverse's storage to the arena, so the next pole reuses it.
func (s *poleSolver) accumulate(lu *factor.LU, weight complex128, acc []float64) error {
	var ainv *blockmat.BlockMatrix
	if s.tmpl == nil {
		ainv = selinv.SelInv(lu)
	} else {
		eng := s.tmpl.Rebind(lu)
		eng.DAG = s.dag
		run, err := eng.Run(s.timeout)
		if err != nil {
			return err
		}
		ainv = run.Ainv
	}
	for orig, p := range s.an.PermTotal {
		acc[orig] += real(weight * ainv.ZAt(p, p))
	}
	ainv.Release()
	return nil
}

// forEachPole calls fn for every pole index with a complex LU to
// refactorize the pole into: one for the whole sequential loop or, when
// parallel is set, one goroutine and LU per pole, as PEXSI's processor
// subgroups. It returns the error of the lowest failing pole.
func (s *poleSolver) forEachPole(n int, parallel bool, fn func(l int, lu *factor.LU) error) error {
	if !parallel {
		lu := factor.New(s.an.BP, dense.Complex)
		for l := 0; l < n; l++ {
			if err := fn(l, lu); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for l := 0; l < n; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[l] = fn(l, factor.New(s.an.BP, dense.Complex))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sumPoles returns base + Σₗ contribs[l], adding in pole order so the
// result does not depend on the order the poles finished in.
func sumPoles(base float64, n int, contribs [][]float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base
		for _, c := range contribs {
			out[i] += c[i]
		}
	}
	return out
}
