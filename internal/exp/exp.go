// Package exp is the experiment harness behind the cmd/ tools. The paper's
// communication-volume tables and figures (§IV-A) are read off the plan of a
// symbolic-only pipeline — generator, ordering, symbolic analysis,
// core.NewPlanConfig (PlanVolumes): no values are factorized and no engine
// runs, because the engine moves exactly the plan's bytes, per rank and per
// class (internal/pselinv's TestMeasuredVolumesMatchPlanExactly). The
// scaling figures (§IV-B) replay the same plans through the timing
// simulator (MeasureScaling). The harness never runs the engine: the one
// experiment that does, commvol's -obs, calls the library's
// System.ParallelSelInvObserved.
package exp

import (
	"fmt"

	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

// Pipeline carries a fully prepared problem: matrix, analysis,
// factorization.
type Pipeline struct {
	Gen *sparse.Generated
	An  *etree.Analysis
	LU  *factor.LU
}

// Prepare runs ordering, symbolic analysis and numeric factorization.
func Prepare(gen *sparse.Generated, relax, maxWidth int) (*Pipeline, error) {
	p := PrepareSymbolic(gen, relax, maxWidth)
	lu, err := factor.Factorize(p.An.A, p.An.BP)
	if err != nil {
		return nil, fmt.Errorf("exp: factorizing %s: %w", gen.Name, err)
	}
	p.LU = lu
	return p, nil
}

// PrepareSymbolic runs ordering and symbolic analysis only (LU stays nil).
// The timing-simulation experiments need just the block structure, which
// allows much larger matrices than the numeric path.
func PrepareSymbolic(gen *sparse.Generated, relax, maxWidth int) *Pipeline {
	perm := ordering.Compute(ordering.NestedDissection, gen.A, gen.Geom)
	an := etree.AnalyzeOrder(gen.A, perm, etree.Options{Relax: relax, MaxWidth: maxWidth})
	return &Pipeline{Gen: gen, An: an}
}

// DefaultRelax and DefaultMaxWidth are the amalgamation settings used by
// all experiments (tuned for supernode widths comparable, after scaling,
// to the paper's).
const (
	DefaultRelax    = 4
	DefaultMaxWidth = 24
)

// VolumeMeasurement holds one scheme's per-rank communication volumes: the
// plan's byte vectors (PlanVolumes), or the counters of a multi-process run
// of that plan (distrun.MeasureVolumes), which equal them.
type VolumeMeasurement struct {
	Scheme core.Scheme
	// ColBcastSent is the per-rank volume sent during Col-Bcast in MB
	// (Table I / Figures 4, 5, 6).
	ColBcastSent []float64
	// RowReduceRecv is the per-rank volume received during Row-Reduce in
	// MB (Table II / Figure 7).
	RowReduceRecv []float64
	// TotalSent is the per-rank total sent volume in MB.
	TotalSent []float64
}

// Summary helpers for the table rows.
func (m *VolumeMeasurement) ColBcastSummary() stats.Summary  { return stats.Summarize(m.ColBcastSent) }
func (m *VolumeMeasurement) RowReduceSummary() stats.Summary { return stats.Summarize(m.RowReduceRecv) }

// planConfig completes cfg (seed, balancer, topology) for one scheme on the
// path p's values select: the symmetry its factorization recorded, or, for a
// symbolic-only pipeline, the same exact test applied to the analyzed matrix.
func planConfig(p *Pipeline, cfg core.PlanConfig, scheme core.Scheme) core.PlanConfig {
	cfg.Scheme = scheme
	if p.LU != nil {
		cfg.Symmetric = p.LU.Symmetric
	} else {
		cfg.Symmetric = p.An.A.IsSymmetric(0)
	}
	return cfg
}

// PlanVolumes reads each scheme's per-rank communication volumes on grid
// off the plan cfg configures (its Scheme and Symmetric are filled in here):
// every tree edge carries its op's blocks once, so the byte vectors are a
// function of the block structure, the grid and the tree shapes alone, and p
// needs no factorization (PrepareSymbolic suffices). The engine's counters
// equal these vectors on every rank and class, in every mode and on both
// transports — internal/pselinv's TestMeasuredVolumesMatchPlanExactly and
// internal/distrun's cross-backend goldens are the proof.
func PlanVolumes(p *Pipeline, grid *procgrid.Grid, schemes []core.Scheme, cfg core.PlanConfig) []*VolumeMeasurement {
	out := make([]*VolumeMeasurement, 0, len(schemes))
	for _, scheme := range schemes {
		plan := core.NewPlanConfig(p.An.BP, grid, planConfig(p, cfg, scheme))
		out = append(out, &VolumeMeasurement{
			Scheme:        scheme,
			ColBcastSent:  stats.BytesToMB(plan.PerRankSent(core.OpColBcast)),
			RowReduceRecv: stats.BytesToMB(plan.PerRankRecv(core.OpRowReduce)),
			TotalSent:     stats.BytesToMB(plan.PerRankTotalSent()),
		})
	}
	return out
}

// ScalingPoint is one (matrix, P, scheme) strong-scaling measurement over
// several placement seeds (Figure 8's 6-run methodology).
type ScalingPoint struct {
	P       int
	Scheme  core.Scheme
	Times   []float64 // simulated seconds per seed
	Mean    float64
	Std     float64
	Compute float64 // mean per-rank compute seconds (last seed)
	Comm    float64 // makespan minus compute (last seed)
}

// ScaledEdisonParams returns the network cost model used by the scaling
// experiments. Relative to DefaultParams, the endpoint bandwidths (rank
// ports and node links) are reduced: the stand-in matrices carry blocks
// roughly an order of magnitude smaller than the paper's supernodes, so the
// per-message byte costs must be re-scaled for the runs to sit in the same
// regime as the paper's — communication-dominated at scale, with the root
// of a restricted collective serializing its sends. EXPERIMENTS.md
// discusses the calibration.
func ScaledEdisonParams() netsim.Params {
	p := netsim.DefaultParams()
	p.PortBW = 1e9
	p.NodeBW = 1e9
	// The effective flop rate is tuned so that the communication-to-
	// computation ratio matches the paper's Figure 9 at both ends of the
	// sweep (≈0.4 at the smallest P, ≈12 for Flat-Tree at the largest).
	p.FlopRate = 1e9
	return p
}

// Scaling stand-ins: larger (structure-only) matrices used by the Figure 8
// and 9 simulations. Analysis is symbolic, so these can be an order of
// magnitude bigger than the numeric-path stand-ins.

// ScalingPNFStandin returns the DG_PNF14000 stand-in for the scaling
// experiments and its analysis options.
func ScalingPNFStandin(seed int64) (*sparse.Generated, int, int) {
	g := sparse.DG2DRadius(48, 48, 8, 2, seed)
	g.Name = "DG_PNF14000_scaling_standin"
	return g, 4, 32
}

// ScalingAudikwStandin returns the audikw_1 stand-in for the scaling
// experiments and its analysis options.
func ScalingAudikwStandin(seed int64) (*sparse.Generated, int, int) {
	g := sparse.FE3D(17, 17, 17, 3, seed)
	g.Name = "audikw_1_scaling_standin"
	return g, 4, 24
}

// MeasureScaling simulates, at each processor count and scheme, the default
// plan (see simPlan) over the given placement seeds.
func MeasureScaling(p *Pipeline, ps []int, schemes []core.Scheme, seeds []uint64, params netsim.Params) []*ScalingPoint {
	var out []*ScalingPoint
	for _, procs := range ps {
		for _, scheme := range schemes {
			out = append(out, replay(simPlan(p, procs, core.PlanConfig{}, scheme, params), seeds, params))
		}
	}
	return out
}

// simPlan builds the plan every simulation experiment replays: cfg with seed
// 1, completed for scheme on the path p's values select (planConfig), on the
// squarish grid of procs ranks, packed params.CoresPerNode to a node as the
// cost model packs them.
func simPlan(p *Pipeline, procs int, cfg core.PlanConfig, scheme core.Scheme, params netsim.Params) *core.Plan {
	cfg.Seed, cfg.Topo = 1, core.Topology{CoresPerNode: params.CoresPerNode}
	return core.NewPlanConfig(p.An.BP, procgrid.Squarish(procs), planConfig(p, cfg, scheme))
}

// replay builds plan's task DAG once and simulates it under params at each
// placement seed.
func replay(plan *core.Plan, seeds []uint64, params netsim.Params) *ScalingPoint {
	dag := netsim.BuildDAG(plan)
	pt := &ScalingPoint{P: plan.Grid.Size(), Scheme: plan.Scheme}
	var last *netsim.Result
	for _, seed := range seeds {
		params.Seed = seed
		last = netsim.SimulateDAG(dag, params)
		pt.Times = append(pt.Times, last.Makespan)
	}
	s := stats.Summarize(pt.Times)
	pt.Mean, pt.Std = s.Mean, s.Std
	pt.Compute, pt.Comm = last.MeanCompute(), last.CommTime()
	return pt
}
