package main

import (
	"time"

	"pselinv"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/pexsi"
	engine "pselinv/internal/pselinv"
	"pselinv/internal/sparse"
)

// pexsiBatch is the flagship workload on the engine's other mode: one
// pexsi.RunBatch of Matsubara poles per op — complex elements, general
// plan, canonical-slot gather reductions, the task-DAG scheduler, and
// factorization pipelined against inversion.
type pexsiBatch struct {
	nx, dofs, procs int
	seed            int64
	poles           []pexsi.ComplexPole
	ref             []float64
	gen             *sparse.Generated
}

const (
	pexsiBeta = 10.0
	pexsiMu   = 0.0
)

func (w *pexsiBatch) name() string { return "pexsi_z16_p16" }
func (w *pexsiBatch) clients() int { return 1 }

func (w *pexsiBatch) config() pexsi.BatchConfig {
	return pexsi.BatchConfig{
		Poles: w.poles, Relax: relax, MaxWidth: maxWidth,
		Procs: w.procs, Scheme: scheme, DAG: true, Seed: planSeed,
	}
}

func (w *pexsiBatch) prep(cfg config) error {
	w.nx, w.dofs, w.procs, w.seed = 16, 4, 16, cfg.seed
	npoles := 16
	if cfg.smoke {
		w.nx, w.dofs, npoles = 6, 2, 3
	}
	var err error
	if w.poles, err = pexsi.MatsubaraPoles(npoles, pexsiBeta, pexsiMu); err != nil {
		return err
	}
	// Reference: the same expansion at one rank, on the serial complex
	// kernel (pexsi.RunComplex with Procs ≤ 1).
	ref, err := pexsi.RunComplex(sparse.DG2D(w.nx, w.nx, w.dofs, w.seed), pexsi.ComplexConfig{
		Poles: w.poles, Relax: relax, MaxWidth: maxWidth, Parallel: true,
	})
	if err != nil {
		return err
	}
	w.ref = ref.Density
	if cfg.injectFault {
		w.ref[0] += 1e-3
	}
	return nil
}

func (w *pexsiBatch) setup() error {
	w.gen = sparse.DG2D(w.nx, w.nx, w.dofs, w.seed)
	return nil
}

func (w *pexsiBatch) teardown() { w.gen = nil }

func (w *pexsiBatch) op(_, _ int) (any, error) {
	return pexsi.RunBatch(w.gen, w.config())
}

func (w *pexsiBatch) check(_ int, out any) error {
	return checkDiag("density", out.(*pexsi.BatchResult).Density, w.ref)
}

// onePole builds the library System of the first pole, DAG on: what one
// inversion of the batch runs.
func (w *pexsiBatch) onePole() (*pselinv.System, error) {
	m := pselinv.DG2D(w.nx, w.nx, w.dofs, w.seed)
	sym, err := pselinv.AnalyzePattern(m, libOptions)
	if err != nil {
		return nil, err
	}
	sys, err := sym.FactorizeShifted(m, w.poles[0].Z)
	if err != nil {
		return nil, err
	}
	sys.SetDAG(true)
	return sys, nil
}

func (w *pexsiBatch) counts() (opCounts, error) {
	sys, err := w.onePole()
	if err != nil {
		return opCounts{}, err
	}
	return observedCounts(sys, w.procs)
}

// traced is RunBatch decomposed, one pole after the other: the pipeline's
// overlap is given up so every layer's time is visible on its own.
func (w *pexsiBatch) traced(tr *tracer, idx int) error {
	if w.gen == nil {
		w.gen = sparse.DG2D(w.nx, w.nx, w.dofs, w.seed)
	}
	var err error
	tr.root("op."+w.name(), idx, func() {
		var an *etree.Analysis
		var tmpl *engine.Engine
		tr.do("pexsi.analysis", func() {
			an = tracedAnalyze(tr, w.gen.A, w.gen.Geom)
			tmpl = tracedTemplate(tr, an, w.procs, false)
		})
		n := w.gen.A.N
		density := make([]float64, n)
		for i := range density {
			density[i] = 0.5
		}
		for _, pole := range w.poles {
			var lu *factor.LU
			tr.do("factor.zfactorize", func() { lu, err = factor.FactorizeShifted(an.A, pole.Z, an.BP) })
			if err != nil {
				return
			}
			var run *engine.RunResult
			tr.do("pselinv.run", func() {
				eng := tmpl.Rebind(lu)
				eng.DAG = true
				run, err = eng.Run(runTimeout)
			})
			if err != nil {
				return
			}
			tr.do("pexsi.accumulate", func() {
				for orig := 0; orig < n; orig++ {
					p := an.PermTotal[orig]
					density[orig] += real(pole.Weight * run.Ainv.ZAt(p, p))
				}
			})
			tr.do("pselinv.release", run.Release)
		}
		err = checkDiag("density", density, w.ref)
	})
	return err
}

func (w *pexsiBatch) layers(tr *tracer, lm map[string]float64, extra map[string]any) error {
	// One untraced batch for the program's own per-pole statistics.
	t0 := time.Now()
	res, err := pexsi.RunBatch(w.gen, w.config())
	if err != nil {
		return err
	}
	batchMS := ms(time.Since(t0))
	var fac, inv time.Duration
	var alloc uint64
	for i, st := range res.Stats {
		fac += st.FactorElapsed
		inv += st.InvertElapsed
		if i > 0 { // the first pole also pays the arena's first fill
			alloc += st.AllocBytes
		}
	}
	np := float64(len(res.Stats))
	lm["pexsi.factor_ms_per_pole"] = ms(fac) / np
	lm["pexsi.invert_ms_per_pole"] = ms(inv) / np
	lm["pexsi.alloc_mb_per_pole"] = float64(alloc) / 1e6 / max(np-1, 1)
	lm["pexsi.analysis_ms_per_batch"] = tr.meanMS("pexsi.analysis")
	// Share of the two stages' summed time the pipeline hid.
	if stages := ms(fac+inv) + lm["pexsi.analysis_ms_per_batch"]; stages > 0 {
		lm["pexsi.overlap_frac"] = max(0, 1-batchMS/stages)
	}

	sys, err := w.onePole()
	if err != nil {
		return err
	}
	return inprocLayers(tr, tr.meanMS("pselinv.run"), sys, w.gen.A, w.gen.Geom, w.procs, false, dense.Complex, lm, extra)
}
