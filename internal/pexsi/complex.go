package pexsi

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/sparse"
	"pselinv/internal/zselinv"
)

// ComplexPole is one term of a complex pole expansion: the density
// contribution is Weight × diag((H − Z·I)⁻¹), combined per TruncatedFermi.
type ComplexPole struct {
	Z      complex128
	Weight complex128
}

// MatsubaraPoles returns the first `count` Matsubara poles of the
// Fermi–Dirac function f(ε) = 1/(1+e^{β(ε−μ)}):
//
//	zₗ = μ + i(2l+1)π/β,  weight = −2/β,
//
// from the classical expansion f(ε) = 1/2 − (2/β) Σₗ Re[1/(ε − zₗ)].
// This is the textbook contour PEXSI's optimized pole selection improves
// upon; the computational structure per pole is identical. Non-positive
// count or inverse temperature is a (caller-surfaceable) error, not a
// panic — both arrive directly from user-facing flags and requests.
func MatsubaraPoles(count int, beta, mu float64) ([]ComplexPole, error) {
	if count <= 0 {
		return nil, fmt.Errorf("pexsi: pole count %d must be positive", count)
	}
	if beta <= 0 {
		return nil, fmt.Errorf("pexsi: inverse temperature β=%g must be positive", beta)
	}
	poles := make([]ComplexPole, count)
	for l := range poles {
		omega := float64(2*l+1) * math.Pi / beta
		poles[l] = ComplexPole{
			Z:      complex(mu, omega),
			Weight: complex(-2/beta, 0),
		}
	}
	return poles, nil
}

// ComplexConfig controls a complex pole-expansion run.
type ComplexConfig struct {
	Poles    []ComplexPole
	Relax    int
	MaxWidth int
	Parallel bool // run poles concurrently
	// Procs > 1 evaluates each pole on the distributed engine (general
	// plan) instead of the serial kernel; the engine agrees with the
	// serial reference to rounding and is bit-reproducible for one plan,
	// so the density is the same either way within 1e-9. The remaining
	// knobs configure the engine and are ignored for Procs ≤ 1.
	Procs    int
	Scheme   core.Scheme
	Balancer core.Balancer
	DAG      bool
	Seed     uint64
	Timeout  time.Duration // per-pole engine timeout (0 = 5 minutes)
}

// ComplexResult is the outcome of a truncated Fermi-operator expansion.
type ComplexResult struct {
	// Density[i] ≈ f(H)ᵢᵢ = 1/2 + Σₗ Re(wₗ · ((H − zₗ)⁻¹)ᵢᵢ), in the
	// ORIGINAL ordering of the input matrix.
	Density []float64
	// LogDets holds log det(H − zₗI) per pole (free byproducts used for
	// chemical-potential searches).
	LogDets []complex128
	Elapsed time.Duration
}

// RunComplex evaluates the truncated Fermi-operator expansion using the
// complex-shift selected inversion. The analysis is performed once — all
// shifted systems share H's sparsity pattern — and each pole reuses it.
// For multi-pole throughput prefer RunBatch, which additionally shares one
// engine template across poles and pipelines factorization with inversion.
func RunComplex(h *sparse.Generated, cfg ComplexConfig) (*ComplexResult, error) {
	if len(cfg.Poles) == 0 {
		return nil, fmt.Errorf("pexsi: no poles configured")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Minute
	}
	start := time.Now()
	perm := ordering.Compute(ordering.NestedDissection, h.A, h.Geom)
	an := etree.Analyze(h.A.Permute(perm), perm,
		etree.Options{Relax: cfg.Relax, MaxWidth: cfg.MaxWidth})
	n := h.A.N
	res := &ComplexResult{Density: make([]float64, n), LogDets: make([]complex128, len(cfg.Poles))}
	contribs := make([][]float64, len(cfg.Poles))

	// One engine template serves every pole when running distributed: the
	// plan and per-rank programs depend only on the pattern.
	var tmpl *pselinv.Engine
	if cfg.Procs > 1 {
		plan := core.NewPlanConfig(an.BP, procgrid.Squarish(cfg.Procs), core.PlanConfig{
			Scheme: cfg.Scheme, Seed: cfg.Seed, Symmetric: false, Balancer: cfg.Balancer,
		})
		tmpl = pselinv.NewEngine(plan, nil)
	}

	runPole := func(l int) error {
		pole := cfg.Poles[l]
		d := make([]float64, n)
		if tmpl != nil {
			lu, err := factor.FactorizeShifted(an.A, pole.Z, an.BP)
			if err != nil {
				return fmt.Errorf("pexsi: pole %d (z=%v): %w", l, pole.Z, err)
			}
			eng := tmpl.Rebind(lu)
			eng.DAG = cfg.DAG
			run, err := eng.Run(cfg.Timeout)
			if err != nil {
				return fmt.Errorf("pexsi: pole %d (z=%v): %w", l, pole.Z, err)
			}
			res.LogDets[l] = lu.LogDet()
			for orig := 0; orig < n; orig++ {
				p := an.PermTotal[orig]
				d[orig] = real(pole.Weight * run.Ainv.ZAt(p, p))
			}
			run.Release()
		} else {
			zr, err := zselinv.SelInvShifted(an, pole.Z)
			if err != nil {
				return fmt.Errorf("pexsi: pole %d (z=%v): %w", l, pole.Z, err)
			}
			res.LogDets[l] = zr.LogDet()
			for orig := 0; orig < n; orig++ {
				p := an.PermTotal[orig]
				v, ok := zr.Entry(p, p)
				if !ok {
					return fmt.Errorf("pexsi: pole %d: diagonal entry %d missing", l, orig)
				}
				d[orig] = real(pole.Weight * v)
			}
			zr.Release()
		}
		contribs[l] = d
		return nil
	}

	if cfg.Parallel {
		var wg sync.WaitGroup
		errs := make([]error, len(cfg.Poles))
		for l := range cfg.Poles {
			wg.Add(1)
			go func(l int) {
				defer wg.Done()
				errs[l] = runPole(l)
			}(l)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	} else {
		for l := range cfg.Poles {
			if err := runPole(l); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < n; i++ {
		res.Density[i] = 0.5
		for l := range cfg.Poles {
			res.Density[i] += contribs[l][i]
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
