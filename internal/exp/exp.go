// Package exp is the experiment harness behind the cmd/ tools. The paper's
// communication-volume tables and figures (§IV-A) are read off the plan of a
// symbolic-only pipeline — generator, ordering, symbolic analysis,
// core.NewPlanConfig (PlanVolumes): no values are factorized and no engine
// runs, because the engine moves exactly the plan's bytes, per rank and per
// class (internal/pselinv's TestMeasuredVolumesMatchPlanExactly). The
// scaling figures (§IV-B) replay the same plans through the timing
// simulator (MeasureScaling), and the one experiment that runs the engine is
// the observed run (MeasureObs), which needs the numeric pipeline (Prepare).
package exp

import (
	"fmt"
	"strings"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/obs"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
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
	an := etree.Analyze(gen.A.Permute(perm), perm, etree.Options{Relax: relax, MaxWidth: maxWidth})
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

// RunOpts selects the plan and engine options of an experiment. PlanVolumes
// reads the plan knobs (CoresPerNode, Balancer) only.
type RunOpts struct {
	// Chaos, when non-nil, installs the seeded delivery adversary. The
	// numerics and the volumes stay bit-identical to an unperturbed run of
	// the same plan.
	Chaos *chaos.Config
	// DAG enables intra-rank task-DAG execution: supernode updates are
	// scheduled onto the dense kernel worker pool and overlapped with the
	// tree collectives. Volumes and numerics stay identical to a
	// sequential run of the same plan.
	DAG bool
	// CoresPerNode, when positive, sets the rank→node placement consumed
	// by core.TopoShiftedTree and reported by the obs chain tables. Zero
	// keeps core.DefaultTopology and leaves reports topology-free.
	CoresPerNode int
	// Balancer selects the supernode→process mapping strategy (zero value
	// is the block-cyclic default).
	Balancer core.Balancer
}

// planConfig translates the options into the plan knobs for one scheme on
// the path p's values select: the symmetry its factorization recorded, or,
// for a symbolic-only pipeline, the same exact test applied to the analyzed
// matrix.
func (o *RunOpts) planConfig(p *Pipeline, scheme core.Scheme, seed uint64) core.PlanConfig {
	var symmetric bool
	if p.LU != nil {
		symmetric = p.LU.Symmetric
	} else {
		symmetric = p.An.A.IsSymmetric(0)
	}
	return core.PlanConfig{Scheme: scheme, Seed: seed, Symmetric: symmetric,
		Balancer: o.Balancer,
		Topo:     core.Topology{CoresPerNode: o.CoresPerNode}}
}

// PlanVolumes reads each scheme's per-rank communication volumes on grid
// off the plan: every tree edge carries exactly one block, so the byte
// vectors are a function of the block structure, the grid and the tree
// shapes alone, and p needs no factorization (PrepareSymbolic suffices). The
// engine's counters equal these vectors on every rank and class, in every
// mode and on both transports — internal/pselinv's
// TestMeasuredVolumesMatchPlanExactly and internal/distrun's cross-backend
// goldens are the proof.
func PlanVolumes(p *Pipeline, grid *procgrid.Grid, schemes []core.Scheme, seed uint64, opts RunOpts) []*VolumeMeasurement {
	out := make([]*VolumeMeasurement, 0, len(schemes))
	for _, scheme := range schemes {
		plan := core.NewPlanConfig(p.An.BP, grid, opts.planConfig(p, scheme, seed))
		out = append(out, &VolumeMeasurement{
			Scheme:        scheme,
			ColBcastSent:  stats.BytesToMB(plan.PerRankSent(core.OpColBcast)),
			RowReduceRecv: stats.BytesToMB(plan.PerRankRecv(core.OpRowReduce)),
			TotalSent:     stats.BytesToMB(plan.PerRankTotalSent()),
		})
	}
	return out
}

// ObsMeasurement is one fully observed engine run for one scheme, however
// it was launched: the report built from the merged per-rank record
// (traffic matrices, chains, imbalance, load and straggler sections) and
// the record's compute+collective timeline on one clock.
type ObsMeasurement struct {
	Scheme core.Scheme
	Report *obs.Report
	Spans  []obs.Span
}

// MeasureObs runs the real engine once per scheme with an obs.Collector
// installed and returns the per-scheme reports. The traffic matrices
// marginalize to the vectors PlanVolumes returns for the same grid, seed and
// options.
func MeasureObs(p *Pipeline, grid *procgrid.Grid, schemes []core.Scheme, seed uint64, timeout time.Duration, opts RunOpts) ([]*ObsMeasurement, error) {
	out := make([]*ObsMeasurement, 0, len(schemes))
	for _, scheme := range schemes {
		m, res, err := observe(p, grid, scheme, seed, timeout, opts)
		if err != nil {
			return nil, fmt.Errorf("exp: obs %v on %v: %w", scheme, grid, err)
		}
		res.Release()
		out = append(out, m)
	}
	return out, nil
}

// observe is one observed in-process run: the engine emits a snapshot per
// rank and obs.Merge assembles them, exactly as a launcher does with the
// snapshots its worker processes send back. A positive opts.CoresPerNode
// adds the cross-node chain columns (zero leaves the report topology-free).
func observe(p *Pipeline, grid *procgrid.Grid, scheme core.Scheme, seed uint64, timeout time.Duration, opts RunOpts) (*ObsMeasurement, *pselinv.RunResult, error) {
	plan := core.NewPlanConfig(p.An.BP, grid, opts.planConfig(p, scheme, seed))
	eng := pselinv.NewEngine(plan, p.LU)
	eng.Obs = obs.NewCollector(plan.PerRankMsgs(), time.Now())
	eng.Obs.SetTopology(opts.CoresPerNode)
	eng.Chaos = opts.Chaos
	eng.DAG = opts.DAG
	res, err := eng.Run(timeout)
	if err != nil {
		return nil, nil, err
	}
	merged, err := obs.Merge(res.Snapshots)
	if err != nil {
		res.Release()
		return nil, nil, err
	}
	return &ObsMeasurement{Scheme: scheme, Report: merged.Report(scheme.String()), Spans: merged.Spans}, res, nil
}

// ObsProblem prepares the small fixed problem behind the observability
// acceptance test and the obs goldens: a 16×16 grid Laplacian inverted on a 4×4
// processor grid — big enough that column/row trees reach the full
// 4-participant fan-out where flat and binary chains separate, small
// enough to run in well under a second.
func ObsProblem() (*Pipeline, *procgrid.Grid, error) {
	p, err := Prepare(sparse.Grid2D(16, 16, 1), 2, 8)
	if err != nil {
		return nil, nil, err
	}
	return p, procgrid.New(4, 4), nil
}

// SchemeSlug is the filesystem-safe form of a scheme name
// ("Shifted Binary-Tree" → "shifted-binary-tree").
func SchemeSlug(s core.Scheme) string {
	return strings.ToLower(strings.ReplaceAll(s.String(), " ", "-"))
}

// WriteObsArtifacts writes each measurement's JSON report and Chrome trace
// into dir (created if needed) as obs-<scheme>.json and trace-<scheme>.json,
// returning the written paths. Both files are byte-for-byte deterministic
// for a fixed problem and seed, except for the schedule-dependent telemetry
// (waits, queue depths, times).
func WriteObsArtifacts(dir string, ms []*ObsMeasurement) ([]string, error) {
	var paths []string
	for _, m := range ms {
		written, err := obs.WriteArtifacts(dir, SchemeSlug(m.Scheme), m.Report, m.Spans)
		if err != nil {
			return nil, err
		}
		paths = append(paths, written...)
	}
	return paths, nil
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

// V073Factor models the PSelInv v0.7.3 reference line of Figure 8: the
// previous release also used a Flat-Tree but lacked unrelated code
// improvements of the new version, so it runs a constant factor slower.
const V073Factor = 1.35

// MeasureScaling simulates the plan at each processor count and scheme
// with the given placement seeds. The task DAG is built once per
// (P, scheme) and replayed across seeds.
func MeasureScaling(p *Pipeline, ps []int, schemes []core.Scheme, seeds []uint64, params netsim.Params) []*ScalingPoint {
	var out []*ScalingPoint
	for _, procs := range ps {
		grid := procgrid.Squarish(procs)
		for _, scheme := range schemes {
			plan := core.NewPlan(p.An.BP, grid, scheme, 1)
			dag := netsim.BuildDAG(plan)
			pt := &ScalingPoint{P: procs, Scheme: scheme}
			var last *netsim.Result
			for _, seed := range seeds {
				prm := params
				prm.Seed = seed
				res := netsim.SimulateDAG(dag, prm)
				pt.Times = append(pt.Times, res.Makespan)
				last = res
			}
			s := stats.Summarize(pt.Times)
			pt.Mean, pt.Std = s.Mean, s.Std
			pt.Compute = last.MeanCompute()
			pt.Comm = last.CommTime()
			out = append(out, pt)
		}
	}
	return out
}
