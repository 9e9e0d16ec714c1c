package main

import (
	"bytes"
	"math/rand"

	"pselinv"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
	engine "pselinv/internal/pselinv"
	"pselinv/internal/sparse"
)

// numVariants is how many distinct shifts (and so references) an op
// sequence rotates through.
const numVariants = 8

// shifts derives the rotating diagonal shifts σᵢ ∈ [0.5, 1.5) from the seed.
func shifts(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5e11))
	out := make([]float64, numVariants)
	for i := range out {
		out[i] = 0.5 + rng.Float64()
	}
	return out
}

// serialDiagonals computes diag((A+σI)⁻¹) with the sequential Algorithm 1
// for every σ: the references the parallel ops are checked against.
func serialDiagonals(m *pselinv.Matrix, sigmas []float64) ([][]float64, error) {
	sym, err := pselinv.AnalyzePattern(m, libOptions)
	if err != nil {
		return nil, err
	}
	refs := make([][]float64, len(sigmas))
	for i, s := range sigmas {
		sh, err := m.Shifted(s)
		if err != nil {
			return nil, err
		}
		sys, err := sym.Factorize(sh)
		if err != nil {
			return nil, err
		}
		inv, err := sys.SelInv()
		if err != nil {
			return nil, err
		}
		refs[i] = inv.Diagonal()
	}
	return refs, nil
}

// --- warm_dg2d_p16 -------------------------------------------------------

// warm is the library PEXSI loop: one Symbolic, a fresh shifted matrix per
// op, Factorize → ParallelSelInv(16) → Diagonal → Release.
type warm struct {
	nx, dofs, procs int
	seed            int64
	sigmas          []float64
	refs            [][]float64

	m   *pselinv.Matrix
	sym *pselinv.Symbolic

	// traced-pass state, built once by the first traced op
	gen  *sparse.Generated
	an   *etree.Analysis
	tmpl *engine.Engine
}

func (w *warm) name() string { return "warm_dg2d_p16" }
func (w *warm) clients() int { return 1 }

func (w *warm) prep(cfg config) error {
	w.nx, w.dofs, w.procs = 24, 4, 16
	if cfg.smoke {
		w.nx, w.dofs = 6, 2
	}
	w.seed = cfg.seed
	w.sigmas = shifts(cfg.seed)
	var err error
	w.refs, err = serialDiagonals(pselinv.DG2D(w.nx, w.nx, w.dofs, w.seed), w.sigmas)
	if err == nil && cfg.injectFault {
		w.refs[0][0] *= 1.001
	}
	return err
}

func (w *warm) setup() error {
	w.m = pselinv.DG2D(w.nx, w.nx, w.dofs, w.seed)
	var err error
	w.sym, err = pselinv.AnalyzePattern(w.m, libOptions)
	return err
}

func (w *warm) teardown() { w.m, w.sym = nil, nil }

func (w *warm) system(idx int) (*pselinv.System, error) {
	sh, err := w.m.Shifted(w.sigmas[idx%numVariants])
	if err != nil {
		return nil, err
	}
	return w.sym.Factorize(sh)
}

func (w *warm) op(_, idx int) (any, error) {
	sys, err := w.system(idx)
	if err != nil {
		return nil, err
	}
	return invertDiagonal(sys, w.procs)
}

func (w *warm) check(idx int, out any) error {
	return checkDiag("diagonal", out.([]float64), w.refs[idx%numVariants])
}

func (w *warm) counts() (opCounts, error) {
	if err := w.setup(); err != nil {
		return opCounts{}, err
	}
	defer w.teardown()
	sys, err := w.system(0)
	if err != nil {
		return opCounts{}, err
	}
	return observedCounts(sys, w.procs)
}

func (w *warm) traced(tr *tracer, idx int) error {
	if w.an == nil {
		// The warm workload pays analysis, plan and template in set-up;
		// trace them once there so their layer metrics exist.
		w.gen = sparse.DG2D(w.nx, w.nx, w.dofs, w.seed)
		tr.root("setup."+w.name(), -1, func() {
			w.an = tracedAnalyze(tr, w.gen.A, w.gen.Geom)
			w.tmpl = tracedTemplate(tr, w.an, w.procs, true)
		})
	}
	var err error
	tr.root("op."+w.name(), idx, func() {
		var a *sparse.CSC
		tr.do("sparse.shift", func() { a, err = w.gen.A.ShiftDiagonal(w.sigmas[idx%numVariants]) })
		if err != nil {
			return
		}
		lu, ferr := tracedFactorize(tr, a, w.an)
		if err = ferr; err != nil {
			return
		}
		var d []float64
		if d, err = tracedRun(tr, w.tmpl, lu, w.an); err == nil {
			err = w.check(idx, d)
		}
	})
	return err
}

func (w *warm) layers(tr *tracer, lm map[string]float64, extra map[string]any) error {
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	sys, err := w.system(0)
	if err != nil {
		return err
	}
	return inprocLayers(tr, tr.meanMS("pselinv.run"), sys, w.gen.A, w.gen.Geom, w.procs, true, dense.Real, lm, extra)
}

// inprocLayers is the part of the layer pass every in-process workload
// shares: one observed run for the counts and the engine split, the
// structure counts, the kernel rates at the plan's shapes, netsim next to
// the measured engine wall runMS, and the simmpi message cost.
func inprocLayers(tr *tracer, runMS float64, sys *pselinv.System, a *sparse.CSC, geom *sparse.Geometry, procs int,
	symmetric bool, elem dense.Elem, lm map[string]float64, extra map[string]any) error {
	an := tracedAnalyze(nil, a, geom)
	o, err := observe(sys, procs)
	if err != nil {
		return err
	}
	engineSplit(o.rep, o.elapsed, o.jsonBytes, runMS, lm)
	plan := core.NewPlanConfig(an.BP, procgrid.Squarish(procs), core.PlanConfig{
		Scheme: scheme, Seed: planSeed, Symmetric: symmetric,
	})
	if err := checkDecomposition(an, plan, elem, sys, o.counts); err != nil {
		return err
	}
	structureMetrics(a, an, plan, o.counts, lm)
	denseMetrics(an.BP, symmetric, elem, lm, extra)
	netsimMetrics(sys, procs, runMS, lm)
	if lm["simmpi.send_recv_ns"], err = simmpiSendRecvNS(); err != nil {
		return err
	}
	// Complex factorizations do four real flops per counted flop.
	if f := tr.meanMS("factor.factorize"); f > 0 {
		lm["factor.gflops"] = float64(an.BP.FactorFlops()) / (f * 1e6)
	} else if f := tr.meanMS("factor.zfactorize"); f > 0 {
		lm["factor.gflops"] = 4 * float64(an.BP.FactorFlops()) / (f * 1e6)
	}
	return nil
}

// --- cold_grid2d_p16 -----------------------------------------------------

// cold uploads a geometry-free MatrixMarket text and pays everything on
// every op: parse, general-graph nested dissection, symbolic analysis,
// factorization, plan, template, engine.
type cold struct {
	nx, procs int
	seed      int64
	ref       []float64
	text      []byte
}

func (w *cold) name() string { return "cold_grid2d_p16" }
func (w *cold) clients() int { return 1 }

func (w *cold) prep(cfg config) error {
	w.nx, w.procs, w.seed = 96, 16, cfg.seed
	if cfg.smoke {
		w.nx = 12
	}
	refs, err := serialDiagonals(pselinv.Grid2D(w.nx, w.nx, w.seed), []float64{0})
	if err != nil {
		return err
	}
	w.ref = refs[0]
	if cfg.injectFault {
		w.ref[0] *= 1.001
	}
	return nil
}

// setup generates the matrix and stages it as the text a client would send.
func (w *cold) setup() error {
	var buf bytes.Buffer
	if err := pselinv.Grid2D(w.nx, w.nx, w.seed).WriteMatrixMarket(&buf); err != nil {
		return err
	}
	w.text = buf.Bytes()
	return nil
}

func (w *cold) teardown() { w.text = nil }

func (w *cold) op(_, _ int) (any, error) {
	m, err := pselinv.FromMatrixMarket(bytes.NewReader(w.text), "upload")
	if err != nil {
		return nil, err
	}
	sys, err := pselinv.NewSystem(m, libOptions)
	if err != nil {
		return nil, err
	}
	return invertDiagonal(sys, w.procs)
}

func (w *cold) check(_ int, out any) error { return checkDiag("diagonal", out.([]float64), w.ref) }

// system stages the text and builds the library System of one op.
func (w *cold) system() (*pselinv.System, error) {
	if err := w.setup(); err != nil {
		return nil, err
	}
	m, err := pselinv.FromMatrixMarket(bytes.NewReader(w.text), "upload")
	if err != nil {
		return nil, err
	}
	return pselinv.NewSystem(m, libOptions)
}

func (w *cold) counts() (opCounts, error) {
	sys, err := w.system()
	if err != nil {
		return opCounts{}, err
	}
	defer w.teardown()
	return observedCounts(sys, w.procs)
}

func (w *cold) traced(tr *tracer, idx int) error {
	if w.text == nil {
		if err := w.setup(); err != nil {
			return err
		}
	}
	var err error
	tr.root("op."+w.name(), idx, func() {
		var a *sparse.CSC
		tr.do("sparse.mm_parse", func() { a, err = sparse.ReadMatrixMarket(bytes.NewReader(w.text)) })
		if err != nil {
			return
		}
		tr.do("sparse.symmetry_check", func() { a.IsStructurallySymmetric() })
		an := tracedAnalyze(tr, a, nil)
		lu, ferr := tracedFactorize(tr, a, an)
		if err = ferr; err != nil {
			return
		}
		tmpl := tracedTemplate(tr, an, w.procs, true)
		var d []float64
		if d, err = tracedRun(tr, tmpl, lu, an); err == nil {
			err = w.check(idx, d)
		}
	})
	return err
}

func (w *cold) layers(tr *tracer, lm map[string]float64, extra map[string]any) error {
	sys, err := w.system()
	if err != nil {
		return err
	}
	defer w.teardown()
	a, err := sparse.ReadMatrixMarket(bytes.NewReader(w.text))
	if err != nil {
		return err
	}
	return inprocLayers(tr, tr.meanMS("pselinv.run"), sys, a, nil, w.procs, true, dense.Real, lm, extra)
}
