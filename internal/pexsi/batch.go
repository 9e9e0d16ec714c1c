// Multi-pole batch engine: the PEXSI inner loop evaluates tens of
// selected inversions that differ only in the complex shift zₗ, so almost
// everything is shareable. RunBatch performs the symbolic analysis ONCE,
// builds ONE engine template (communication plan + per-rank programs) and
// rebinds it per pole, pipelines the numeric factorization of pole l+1
// with the selected inversion of pole l, and recycles every engine buffer
// through the dense arena pole-to-pole — so steady-state allocations stay
// flat no matter how many poles are evaluated.
package pexsi

import (
	"fmt"
	"runtime"
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

// BatchConfig controls a multi-pole batch run.
type BatchConfig struct {
	Poles    []ComplexPole
	Relax    int
	MaxWidth int
	// Procs is the simulated rank count of the shared engine (default 1).
	Procs    int
	Scheme   core.Scheme
	Balancer core.Balancer
	DAG      bool
	Seed     uint64
	// Timeout bounds each pole's engine run (0 = 5 minutes).
	Timeout time.Duration
	// Lookahead is the number of completed factorizations allowed to queue
	// ahead of the inversion stage (default 1: factorize pole l+1 while
	// inverting pole l). Higher values only help when factorization times
	// vary between poles; memory grows with each queued factor.
	Lookahead int
}

// BatchPoleStats records one pole's contribution to a batch run.
type BatchPoleStats struct {
	Z      complex128
	LogDet complex128
	// FactorElapsed and InvertElapsed time the two pipeline stages; they
	// overlap wall-clock-wise across adjacent poles.
	FactorElapsed time.Duration
	InvertElapsed time.Duration
	// AllocBytes is the heap allocated while this pole was being inverted
	// (including the overlapped factorization of its successor). With the
	// template shared and arena recycling in effect this is flat from the
	// second pole on — the property the batch allocation test pins.
	AllocBytes uint64
}

// BatchResult is the outcome of RunBatch.
type BatchResult struct {
	// Density[i] ≈ f(H)ᵢᵢ in the ORIGINAL ordering, as ComplexResult.
	Density []float64
	Stats   []BatchPoleStats
	Elapsed time.Duration
}

// facJob carries one pole's factorization through the pipeline.
type facJob struct {
	l       int
	lu      *factor.LU
	elapsed time.Duration
	err     error
}

// RunBatch evaluates the truncated Fermi-operator expansion for all poles
// through one shared engine template. The per-pole results are exactly
// RunComplex's for the same configuration (one plan, one fold order); only
// the wall-clock and allocation behavior differ.
func RunBatch(h *sparse.Generated, cfg BatchConfig) (*BatchResult, error) {
	if len(cfg.Poles) == 0 {
		return nil, fmt.Errorf("pexsi: no poles configured")
	}
	if cfg.Procs <= 0 {
		cfg.Procs = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = 1
	}
	start := time.Now()
	perm := ordering.Compute(ordering.NestedDissection, h.A, h.Geom)
	an := etree.Analyze(h.A.Permute(perm), perm,
		etree.Options{Relax: cfg.Relax, MaxWidth: cfg.MaxWidth})
	plan := core.NewPlanConfig(an.BP, procgrid.Squarish(cfg.Procs), core.PlanConfig{
		Scheme: cfg.Scheme, Seed: cfg.Seed, Symmetric: false, Balancer: cfg.Balancer,
	})
	tmpl := pselinv.NewEngine(plan, nil)

	// Producer: numeric factorizations, in pole order, at most Lookahead
	// queued beyond the one the consumer holds. The done channel unblocks
	// the producer when the consumer aborts early.
	jobs := make(chan facJob, cfg.Lookahead)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(jobs)
		for l, p := range cfg.Poles {
			t0 := time.Now()
			lu, err := factor.FactorizeShifted(an.A, p.Z, an.BP)
			j := facJob{l: l, lu: lu, elapsed: time.Since(t0), err: err}
			select {
			case jobs <- j:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	n := h.A.N
	res := &BatchResult{
		Density: make([]float64, n),
		Stats:   make([]BatchPoleStats, len(cfg.Poles)),
	}
	for i := range res.Density {
		res.Density[i] = 0.5
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lastAlloc := ms.TotalAlloc
	for job := range jobs {
		pole := cfg.Poles[job.l]
		if job.err != nil {
			return nil, fmt.Errorf("pexsi: pole %d (z=%v): %w", job.l, pole.Z, job.err)
		}
		t0 := time.Now()
		if cfg.Procs == 1 && !cfg.DAG {
			// Single-rank groups skip the engine and run the serial
			// kernel — bit-identical to a one-rank engine run by the
			// complex parity suite.
			zr := zselinv.SelInvFromLU(job.lu, pole.Z)
			for orig := 0; orig < n; orig++ {
				p := an.PermTotal[orig]
				v, ok := zr.Entry(p, p)
				if !ok {
					return nil, fmt.Errorf("pexsi: pole %d: diagonal entry %d missing", job.l, orig)
				}
				res.Density[orig] += real(pole.Weight * v)
			}
			zr.Release()
		} else {
			eng := tmpl.Rebind(job.lu)
			eng.DAG = cfg.DAG
			run, err := eng.Run(cfg.Timeout)
			if err != nil {
				return nil, fmt.Errorf("pexsi: pole %d (z=%v): %w", job.l, pole.Z, err)
			}
			for orig := 0; orig < n; orig++ {
				p := an.PermTotal[orig]
				res.Density[orig] += real(pole.Weight * run.Ainv.ZAt(p, p))
			}
			// Return every engine buffer to the arena before the next pole
			// so the steady state reuses rather than reallocates.
			run.Release()
		}
		st := &res.Stats[job.l]
		st.Z = pole.Z
		st.LogDet = job.lu.LogDet()
		st.FactorElapsed = job.elapsed
		st.InvertElapsed = time.Since(t0)
		runtime.ReadMemStats(&ms)
		st.AllocBytes = ms.TotalAlloc - lastAlloc
		lastAlloc = ms.TotalAlloc
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
