// Package exp is the experiment harness: it wires generators, ordering,
// symbolic analysis, factorization, the parallel engine and the timing
// simulator into the concrete experiments of the paper's evaluation
// section, one entry point per table/figure. The cmd/ tools and the
// top-level benchmarks are thin wrappers around this package.
package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/obs"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/simmpi"
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

// Refactorize numerically factorizes a new matrix against an existing
// pipeline's symbolic analysis. The new matrix must share the pipeline's
// sparsity pattern (same PatternFingerprint); only its values may differ —
// the PEXSI pole loop, where A + σℓI is inverted once per pole on one
// analysis. The returned pipeline shares the receiver's analysis, so
// engines built from both may run concurrently.
func Refactorize(p *Pipeline, gen *sparse.Generated) (*Pipeline, error) {
	if got, want := gen.A.PatternFingerprint(), p.Gen.A.PatternFingerprint(); got != want {
		return nil, fmt.Errorf("exp: %s: pattern does not match the analyzed pipeline (%s)", gen.Name, p.Gen.Name)
	}
	lu, err := factor.Factorize(gen.A.Permute(p.An.PermTotal), p.An.BP)
	if err != nil {
		return nil, fmt.Errorf("exp: refactorizing %s: %w", gen.Name, err)
	}
	return &Pipeline{Gen: gen, An: p.An, LU: lu}, nil
}

// DefaultRelax and DefaultMaxWidth are the amalgamation settings used by
// all experiments (tuned for supernode widths comparable, after scaling,
// to the paper's).
const (
	DefaultRelax    = 4
	DefaultMaxWidth = 24
)

// VolumeMeasurement is the outcome of one engine run for one scheme.
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
	Elapsed   time.Duration
}

// Summary helpers for the table rows.
func (m *VolumeMeasurement) ColBcastSummary() stats.Summary  { return stats.Summarize(m.ColBcastSent) }
func (m *VolumeMeasurement) RowReduceSummary() stats.Summary { return stats.Summarize(m.RowReduceRecv) }

// RunOpts selects the plan and engine options of a measurement run.
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
	// by the topology-aware schemes (core.TopoShiftedTree, core.BineTree)
	// and reported by the obs chain tables. Zero keeps
	// core.DefaultTopology and leaves reports topology-free.
	CoresPerNode int
	// Balancer selects the supernode→process mapping strategy (zero value
	// is the block-cyclic default).
	Balancer core.Balancer
}

// planConfig translates the options into the plan knobs for one scheme on
// the path p's factorized values select.
func (o *RunOpts) planConfig(p *Pipeline, scheme core.Scheme, seed uint64) core.PlanConfig {
	return core.PlanConfig{Scheme: scheme, Seed: seed, Symmetric: p.LU.Symmetric,
		Balancer: o.Balancer,
		Topo:     core.Topology{CoresPerNode: o.CoresPerNode}}
}

// MeasureVolumes runs the real parallel engine once per scheme on the given
// grid, with the substrate options applied, and collects the per-rank
// communication volumes. The numerics are identical across schemes
// (verified by the engine's tests); only the message routing differs. A
// chaos adversary reorders and skews message delivery but neither adds nor
// removes traffic, so the measured volumes equal an unperturbed run's, and
// so do the numerics, bit for bit.
func MeasureVolumes(p *Pipeline, grid *procgrid.Grid, schemes []core.Scheme, seed uint64, timeout time.Duration, opts RunOpts) ([]*VolumeMeasurement, error) {
	out := make([]*VolumeMeasurement, 0, len(schemes))
	for _, scheme := range schemes {
		plan := core.NewPlanConfig(p.An.BP, grid, opts.planConfig(p, scheme, seed))
		eng := pselinv.NewEngine(plan, p.LU)
		eng.Chaos = opts.Chaos
		eng.DAG = opts.DAG
		res, err := eng.Run(timeout)
		if err != nil {
			return nil, fmt.Errorf("exp: %v on %v: %w", scheme, grid, err)
		}
		if opts.Chaos != nil {
			if cerr := res.World.CheckConservation(); cerr != nil {
				return nil, fmt.Errorf("exp: %v on %v: %w", scheme, grid, cerr)
			}
		}
		m := &VolumeMeasurement{
			Scheme:        scheme,
			ColBcastSent:  stats.BytesToMB(res.World.VolumeVector(simmpi.ClassColBcast, true)),
			RowReduceRecv: stats.BytesToMB(res.World.VolumeVector(simmpi.ClassRowReduce, false)),
			Elapsed:       res.Elapsed,
		}
		total := make([]float64, res.World.P)
		for r := 0; r < res.World.P; r++ {
			total[r] = stats.MB(res.World.TotalSent(r))
		}
		m.TotalSent = total
		// Only the volume counters are kept; recycle the inverse's blocks
		// so the per-scheme runs reuse each other's storage.
		res.Release()
		out = append(out, m)
	}
	return out, nil
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
// installed and returns the per-scheme reports. The same seed across schemes
// makes the traffic matrices directly comparable to a cmd/commvol run with
// that seed (the byte counters are identical; only the routing differs per
// scheme).
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

// ObsProblem prepares the small fixed problem behind `-obs` runs and the
// observability acceptance test: a 16×16 grid Laplacian inverted on a 4×4
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

// VerifyChaos is the chaos preflight of the cmd tools: it runs the real
// engine on a small fixed problem twice — once unperturbed and once under
// the seeded adversary — and fails unless the two results agree bit for bit
// and both worlds conserve bytes. The scaling experiments themselves go
// through the timing simulator (no live messages), so this is how a
// -chaos-seed run establishes that the engine the model stands in for
// survives that adversarial schedule. With dag set the runs additionally
// detour compute through the task-DAG scheduler, so the preflight also
// pins DAG determinism under the adversary; balancer is the
// supernode→process map the run will actually use, whose message schedule
// is what the adversary stresses.
func VerifyChaos(chaosSeed uint64, dag bool, balancer core.Balancer, timeout time.Duration) error {
	p, err := Prepare(sparse.Grid2D(8, 8, 2), 2, 6)
	if err != nil {
		return err
	}
	grid := procgrid.New(4, 4)
	run := func(cc *chaos.Config) (map[[2]int][]float64, error) {
		plan := core.NewPlanConfig(p.An.BP, grid, core.PlanConfig{
			Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: true,
			Balancer: balancer,
		})
		eng := pselinv.NewEngine(plan, p.LU)
		eng.DAG = dag
		eng.Chaos = cc
		res, err := eng.Run(timeout)
		if err != nil {
			return nil, err
		}
		if cerr := res.World.CheckConservation(); cerr != nil {
			return nil, cerr
		}
		snap := map[[2]int][]float64{}
		res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
			snap[[2]int{key.I, key.J}] = append([]float64(nil), b.Data...)
		})
		res.Release()
		return snap, nil
	}
	base, err := run(nil)
	if err != nil {
		return fmt.Errorf("exp: chaos preflight baseline: %w", err)
	}
	perturbed, err := run(&chaos.Config{Seed: chaosSeed, DupDetect: true})
	if err != nil {
		return fmt.Errorf("exp: chaos preflight seed %d: %w", chaosSeed, err)
	}
	if len(base) != len(perturbed) {
		return fmt.Errorf("exp: chaos seed %d: %d blocks vs %d in baseline",
			chaosSeed, len(perturbed), len(base))
	}
	for key, want := range base {
		got := perturbed[key]
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				return fmt.Errorf("exp: chaos seed %d: block (%d,%d) entry %d differs from unperturbed run",
					chaosSeed, key[0], key[1], i)
			}
		}
	}
	return nil
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

// SelInvFlops estimates the selected-inversion flop count of the pipeline
// (used to report work alongside scaling results).
func SelInvFlops(p *Pipeline) int64 {
	var flops int64
	part := p.An.BP.Part
	for k := 0; k < p.An.BP.NumSnodes(); k++ {
		w := int64(part.Width(k))
		c := p.An.BP.Struct(k)
		for _, i := range c {
			for _, j := range c {
				flops += 2 * int64(part.Width(j)) * w * int64(part.Width(i))
			}
		}
	}
	return flops
}
