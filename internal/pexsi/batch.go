// Multi-pole batch engine: the PEXSI inner loop evaluates tens of
// selected inversions that differ only in the complex shift zₗ, so almost
// everything is shareable. Like the other drivers RunBatch analyzes once
// and rebinds one engine template per pole; what it adds is the pipeline —
// pole l+1 is factorized while pole l is inverted — over three LUs: an
// inverted pole's goes back to the producer, which refactorizes a later pole
// into it, so from then on a pole allocates only what its inversion does
// (the engine's per-run state: block maps and matrix headers).
package pexsi

import (
	"fmt"
	"runtime"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/factor"
	"pselinv/internal/sparse"
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
	// (including the overlapped factorization of a successor: one of the
	// batch's three LUs for the first poles — the lower half of the factor
	// layout when H is symmetric — nothing afterwards, the property the batch
	// allocation test pins).
	AllocBytes uint64
}

// BatchResult is the outcome of RunBatch.
type BatchResult struct {
	// Density[i] ≈ f(H)ᵢᵢ in the ORIGINAL ordering, as ComplexResult.
	Density []float64
	Stats   []BatchPoleStats
	Elapsed time.Duration
	Path    string // as ComplexResult.Path
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
	start := time.Now()
	s, err := newPoleSolver(h, cfg.Relax, cfg.MaxWidth, cfg.Procs, core.PlanConfig{
		Scheme: cfg.Scheme, Seed: cfg.Seed, Balancer: cfg.Balancer,
	}, cfg.DAG, cfg.Timeout)
	if err != nil {
		return nil, err
	}

	// Producer: numeric factorizations, in pole order, handed over unbuffered:
	// pole l+1 is factorized while pole l is inverted, and waits in the
	// producer until the consumer has handed pole l's LU back on spent and
	// takes it. So the producer refactorizes that LU for pole l+2, and at most
	// two LUs exist — being inverted, being factorized. The consumer keeps the
	// LU of a failed run, whose ranks may still be reading it. The done channel
	// unblocks the producer when the consumer aborts early.
	jobs := make(chan facJob)
	spent := make(chan *factor.LU, 2)
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(jobs)
		for l, p := range cfg.Poles {
			t0 := time.Now()
			var lu *factor.LU
			select {
			case lu = <-spent:
			default:
				lu = factor.New(s.an.BP, dense.Complex)
			}
			err := lu.Refactorize(s.h, 0, s.sc, p.Z)
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

	res := &BatchResult{
		Density: make([]float64, h.A.N),
		Stats:   make([]BatchPoleStats, len(cfg.Poles)),
		Path:    s.path,
	}
	for i := range res.Density {
		res.Density[i] = 0.5
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	lastAlloc := ms.TotalAlloc
	for job := range jobs {
		pole := cfg.Poles[job.l]
		t0 := time.Now()
		err := job.err
		if err == nil {
			err = s.accumulate(job.lu, pole.Weight, res.Density)
		}
		if err != nil {
			return nil, fmt.Errorf("pexsi: pole %d (z=%v): %w", job.l, pole.Z, err)
		}
		st := &res.Stats[job.l]
		st.Z = pole.Z
		st.LogDet = job.lu.LogDet()
		st.FactorElapsed = job.elapsed
		st.InvertElapsed = time.Since(t0)
		spent <- job.lu
		runtime.ReadMemStats(&ms)
		st.AllocBytes = ms.TotalAlloc - lastAlloc
		lastAlloc = ms.TotalAlloc
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
