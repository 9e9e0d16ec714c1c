// Package pexsi implements the pole-expansion driver that motivates the
// paper: electronic-structure calculations approximate the density matrix
// of a Hamiltonian H as a weighted sum of selected inverses of shifted
// systems,
//
//	ρ ≈ Σₗ wₗ · diag( (H + σₗ I)⁻¹ ),
//
// with the selected inversions for different poles carried out
// simultaneously on independent processor subgroups (§V: "multiple
// selected inversions are carried out simultaneously on different
// subgroups of processors").
//
// Three drivers share one analysis per run and one per-pole body (invert on
// the serial reference or the engine, read the weighted diagonal, release)
// and differ only in pole type and scheduling: Run takes real positive
// shifts (the matrices stay diagonally dominant) and RunComplex the complex
// poles of a rational approximation of the Fermi–Dirac function, both one
// pole after the other or one goroutine per pole; RunBatch pipelines the
// factorization of complex pole l+1 with the inversion of pole l.
package pexsi

import (
	"fmt"
	"math"
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

// Pole is one expansion term: diag((H + Shift·I)⁻¹) scaled by Weight.
type Pole struct {
	Shift  float64
	Weight float64
}

// FermiPoles returns a simple real-shift pole set emulating the structure
// of a Fermi–Dirac rational approximation: geometrically spaced shifts
// with exponentially decaying weights, normalized to sum to one.
func FermiPoles(count int, minShift, ratio float64) []Pole {
	if count <= 0 {
		panic("pexsi: non-positive pole count")
	}
	poles := make([]Pole, count)
	shift := minShift
	wsum := 0.0
	for l := range poles {
		w := math.Exp(-float64(l) / 2)
		poles[l] = Pole{Shift: shift, Weight: w}
		wsum += w
		shift *= ratio
	}
	for l := range poles {
		poles[l].Weight /= wsum
	}
	return poles
}

// Config controls a pole-expansion run.
type Config struct {
	Poles        []Pole
	ProcsPerPole int         // simulated ranks per pole group
	Scheme       core.Scheme // restricted-collective scheme within each group
	// Balancer selects the supernode→process mapping within each pole
	// group (zero value: block-cyclic).
	Balancer core.Balancer
	// DAG enables intra-rank task-DAG execution within each pole group.
	DAG      bool
	Seed     uint64
	Relax    int
	MaxWidth int
	Parallel bool          // run pole groups concurrently (as PEXSI does)
	Timeout  time.Duration // per-pole engine timeout (0 = 5 minutes)
}

// PoleStats records the communication behaviour of one pole's inversion.
type PoleStats struct {
	Pole      Pole
	MaxSentMB float64
	Elapsed   time.Duration
}

// Result is the outcome of a pole-expansion run.
type Result struct {
	// Density is the accumulated Σ wₗ diag((H+σₗI)⁻¹), in the ORIGINAL
	// index ordering of the input matrix.
	Density []float64
	Stats   []PoleStats
	Elapsed time.Duration
	// Path names what inverted the poles: "serial", or the engine plan the
	// Hamiltonian's values selected, "symmetric" or "general".
	Path string
}

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
	if timeout == 0 {
		timeout = 5 * time.Minute
	}
	an := exp.PrepareSymbolic(h, relax, maxWidth).An
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
// the serial reference the engine agrees with to rounding — adds
// weight × the inverse's diagonal to acc in the original ordering, and
// returns the inverse's storage to the arena, so the next pole reuses it.
func (s *poleSolver) accumulate(lu *factor.LU, weight complex128, acc []float64) (maxSentMB float64, elapsed time.Duration, err error) {
	var ainv *blockmat.BlockMatrix
	if s.tmpl == nil {
		t0 := time.Now()
		ainv = selinv.SelInv(lu)
		elapsed = time.Since(t0)
	} else {
		eng := s.tmpl.Rebind(lu)
		eng.DAG = s.dag
		run, err := eng.Run(s.timeout)
		if err != nil {
			return 0, 0, err
		}
		ainv, elapsed = run.Ainv, run.Elapsed
		for r := 0; r < run.World.P; r++ {
			maxSentMB = max(maxSentMB, float64(run.World.TotalSent(r))/1e6)
		}
	}
	for orig, p := range s.an.PermTotal {
		if lu.Elem == dense.Complex {
			acc[orig] += real(weight * ainv.ZAt(p, p))
		} else {
			acc[orig] += real(weight) * ainv.At(p, p)
		}
	}
	ainv.Release()
	return maxSentMB, elapsed, nil
}

// forEachPole calls fn for every pole index with an LU to refactorize the
// pole into: one for the whole sequential loop or, when parallel is set, one
// goroutine and LU per pole, as PEXSI's processor subgroups. It returns the
// error of the lowest failing pole.
func (s *poleSolver) forEachPole(n int, parallel bool, elem dense.Elem, fn func(l int, lu *factor.LU) error) error {
	if !parallel {
		lu := factor.New(s.an.BP, elem)
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
			errs[l] = fn(l, factor.New(s.an.BP, elem))
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

// Run executes the pole expansion for the Hamiltonian h.
func Run(h *sparse.Generated, cfg Config) (*Result, error) {
	if len(cfg.Poles) == 0 {
		return nil, fmt.Errorf("pexsi: no poles configured")
	}
	start := time.Now()
	s, err := newPoleSolver(h, cfg.Relax, cfg.MaxWidth, cfg.ProcsPerPole, core.PlanConfig{
		Scheme: cfg.Scheme, Seed: cfg.Seed, Balancer: cfg.Balancer,
	}, cfg.DAG, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: make([]PoleStats, len(cfg.Poles)), Path: s.path}
	contribs := make([][]float64, len(cfg.Poles))
	err = s.forEachPole(len(cfg.Poles), cfg.Parallel, dense.Real, func(l int, lu *factor.LU) error {
		pole := cfg.Poles[l]
		st := &res.Stats[l]
		st.Pole = pole
		contribs[l] = make([]float64, h.A.N)
		err := lu.Refactorize(s.h, pole.Shift, s.sc, 0) // H + σI
		if err == nil {
			st.MaxSentMB, st.Elapsed, err = s.accumulate(lu, complex(pole.Weight, 0), contribs[l])
		}
		if err != nil {
			return fmt.Errorf("pexsi: pole %d (σ=%g): %w", l, pole.Shift, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Density = sumPoles(0, h.A.N, contribs)
	res.Elapsed = time.Since(start)
	return res, nil
}
