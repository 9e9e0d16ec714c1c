package pexsi

import (
	"fmt"
	"math"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/factor"
	"pselinv/internal/sparse"
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
	// Procs > 1 evaluates each pole on the distributed engine instead of
	// the serial kernel, on the plan H's values select (H − zI is complex
	// symmetric when H is symmetric); the engine agrees with the serial
	// reference to rounding and is bit-reproducible for one plan, so the
	// density is the same either way within 1e-9. The remaining knobs
	// configure the engine and are ignored for Procs ≤ 1.
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
	// Path names what inverted the poles: "serial", or the engine plan the
	// Hamiltonian's values selected, "symmetric" or "general".
	Path string
}

// RunComplex evaluates the truncated Fermi-operator expansion using the
// complex-shift selected inversion, the poles one after the other or (with
// Parallel) all at once. For multi-pole throughput prefer RunBatch, which
// pipelines factorization with inversion and keeps memory flat.
func RunComplex(h *sparse.Generated, cfg ComplexConfig) (*ComplexResult, error) {
	if len(cfg.Poles) == 0 {
		return nil, fmt.Errorf("pexsi: no poles configured")
	}
	start := time.Now()
	s, err := newPoleSolver(h, cfg.Relax, cfg.MaxWidth, cfg.Procs, core.PlanConfig{
		Scheme: cfg.Scheme, Seed: cfg.Seed, Balancer: cfg.Balancer,
	}, cfg.DAG, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	res := &ComplexResult{LogDets: make([]complex128, len(cfg.Poles)), Path: s.path}
	contribs := make([][]float64, len(cfg.Poles))
	err = s.forEachPole(len(cfg.Poles), cfg.Parallel, func(l int, lu *factor.LU) error {
		pole := cfg.Poles[l]
		contribs[l] = make([]float64, h.A.N)
		err := lu.Refactorize(s.h, 0, s.sc, pole.Z)
		if err == nil {
			res.LogDets[l] = lu.LogDet()
			err = s.accumulate(lu, pole.Weight, contribs[l])
		}
		if err != nil {
			return fmt.Errorf("pexsi: pole %d (z=%v): %w", l, pole.Z, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Density = sumPoles(0.5, h.A.N, contribs)
	res.Elapsed = time.Since(start)
	return res, nil
}
