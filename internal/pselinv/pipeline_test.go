package pselinv

import (
	"fmt"
	"math"
	"testing"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/selinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// pipelineInput is one input of FuzzPipeline: a generated matrix, its
// analysis, the plan and the run modes. Every field decodes to a valid value
// (see the methods below), so the fuzzer may set any bits.
type pipelineInput struct {
	Gen            uint8   // matrix class: genGrid2D … genRandomSym
	D1, D2, D3, D4 uint8   // the class's dimensions (see matrix)
	MSeed          int64   // the generator's seed
	ASeed          int64   // with Eps > 0: sparse.Asymmetrize(g, ASeed, min(Eps, 1))
	Eps            float64 // 0: the generator's symmetric values
	Order          uint8   // ordering.Method
	Relax, Width   uint8   // etree.Options: Relax mod 8, MaxWidth 1..48
	Scheme         uint8   // index into core.AllSchemes
	Balancer       uint8   // index into core.AllBalancers
	Cores          uint8   // core.Topology.CoresPerNode; 0 is the default
	Pr, Pc         uint8   // the process grid, each 1..8
	PlanSeed       uint64  // core.PlanConfig.Seed
	ZRe, ZIm       float64 // ZIm ≠ 0: factorize A − zI in complex arithmetic
	DAG            bool    // the second run schedules its compute as a task DAG
	Chaos          uint64  // ≠ 0: the second run's delivery adversary seed
	Window         uint8   // chaos.Config.ReorderWindow mod 32; 0 is the default
	Net            bool    // the adversary skews delays by netsim's latency profile
}

const (
	genGrid2D = iota
	genGrid3D
	genDG2D
	genFE3D
	genBanded
	genRandomSym
	numGens
)

// dim maps x to 1..m, each of 1..m to itself.
func dim(x uint8, m int) int { return 1 + (int(x)+m-1)%m }

// matrix generates the input's matrix: at most 200 unknowns whatever the
// dimensions.
func (in *pipelineInput) matrix() *sparse.Generated {
	var g *sparse.Generated
	switch in.Gen % numGens {
	case genGrid2D:
		g = sparse.Grid2D(dim(in.D1, 14), dim(in.D2, 14), in.MSeed)
	case genGrid3D:
		g = sparse.Grid3D(dim(in.D1, 5), dim(in.D2, 5), dim(in.D3, 5), in.MSeed)
	case genDG2D:
		g = sparse.DG2D(dim(in.D1, 6), dim(in.D2, 6), dim(in.D4, 5), in.MSeed)
	case genFE3D:
		g = sparse.FE3D(dim(in.D1, 4), dim(in.D2, 4), dim(in.D3, 4), dim(in.D4, 3), in.MSeed)
	case genBanded:
		g = sparse.Banded(dim(in.D1, 200), int(in.D2%8), in.MSeed)
	case genRandomSym:
		g = sparse.RandomSym(dim(in.D1, 200), int(in.D2%8), in.MSeed)
	}
	if in.Eps > 0 {
		g = sparse.Asymmetrize(g, in.ASeed, min(in.Eps, 1))
	}
	return g
}

// shift is the complex shift z, 0 for a real factorization: 0.5 ≤ |Im z| ≤ 4
// and −2 ≤ Re z ≤ 1, which keeps A − zI of the diagonally dominant
// generators well conditioned.
func (in *pipelineInput) shift() complex128 {
	if in.ZIm == 0 || math.IsNaN(in.ZIm) {
		return 0
	}
	re := in.ZRe
	if math.IsNaN(re) {
		re = 0
	}
	return complex(min(max(re, -2), 1), math.Copysign(min(max(math.Abs(in.ZIm), 0.5), 4), in.ZIm))
}

// adversary is the second run's delivery adversary, nil for none.
func (in *pipelineInput) adversary() *chaos.Config {
	if in.Chaos == 0 {
		return nil
	}
	cfg := &chaos.Config{Seed: in.Chaos, ReorderWindow: int(in.Window % 32)}
	if in.Net {
		net := netsim.DefaultParams()
		cfg.Net = &net
	}
	return cfg
}

// runUnder runs eng on a fresh in-process world with the delivery adversary
// cfg installed (none when nil). On error the world is closed.
func runUnder(eng *Engine, cfg *chaos.Config) (*RunResult, error) {
	world := simmpi.NewWorld(eng.Plan.Grid.Size())
	if cfg != nil {
		chaos.Install(*cfg, world)
	}
	res, err := eng.RunWorld(world, testTimeout)
	if err != nil {
		world.Close()
	}
	return res, err
}

// FuzzPipeline is the engine's property test: generated matrix → ordering →
// analysis → real or complex-shifted factorization → plan (any scheme,
// balancer, topology and grid up to 8×8) → the engine, then a second run of
// the same plan in DAG mode and/or under a delivery adversary. It holds
//   - the first run to the serial reference (selinv.SelInv): bit for bit on
//     one rank, within 1e-9 on more;
//   - the first run to the reference-free certificate ‖diag((A − zI)·X) − 1‖∞
//     ≤ 1e-12 (TestReferenceFreeCertificate's bound);
//   - both runs' per-rank, per-class traffic to the plan's;
//   - the second run to the first, bit for bit: a reduction's fold order is a
//     property of the plan, not of delivery order or the DAG pool's schedule.
//
// An input of more than maxProducts block products is not run. A hang fails
// the run with the hung-run report (RunWorld). The seed corpus
// (pipelineCorpus) holds every case of the per-knob sweeps it replaced; a
// failing input the fuzzer finds is written under testdata/fuzz/FuzzPipeline
// and reruns with go test -run FuzzPipeline/<name>.
func FuzzPipeline(f *testing.F) {
	withPoolWorkers(f, 4) // DAG runs offload for real on a one-core host too
	for _, g := range pipelineCorpus() {
		for _, in := range g.cases {
			f.Add(in.Gen, in.D1, in.D2, in.D3, in.D4, in.MSeed, in.ASeed, in.Eps, in.Order, in.Relax, in.Width,
				in.Scheme, in.Balancer, in.Cores, in.Pr, in.Pc, in.PlanSeed, in.ZRe, in.ZIm, in.DAG, in.Chaos, in.Window, in.Net)
		}
	}
	f.Fuzz(func(t *testing.T, gen, d1, d2, d3, d4 uint8, mseed, aseed int64, eps float64, order, relax, width,
		scheme, balancer, cores, pr, pc uint8, planSeed uint64, zre, zim float64, dag bool, chaosSeed uint64, window uint8, net bool) {
		checkPipeline(t, &pipelineInput{gen, d1, d2, d3, d4, mseed, aseed, eps, order, relax, width,
			scheme, balancer, cores, pr, pc, planSeed, zre, zim, dag, chaosSeed, window, net})
	})
}

func checkPipeline(t *testing.T, in *pipelineInput) {
	key := *in
	key.DAG, key.Chaos, key.Window, key.Net = false, 0, 0, false
	if lastBase.eng == nil || lastBase.key != key {
		lastBase.eng, lastBase.base = baseline(t, in)
		lastBase.key = key
	}
	eng, base := lastBase.eng, lastBase.base
	if eng == nil || !in.DAG && in.Chaos == 0 {
		return
	}
	eng = eng.Rebind(eng.LU) // a copy: the cached engine stays sequential
	eng.DAG = in.DAG
	label := fmt.Sprintf("%+v", *in)
	res, err := runUnder(eng, in.adversary())
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireVolumesMatchPlan(t, label, eng.Plan, res.World, eng.LU.Elem.Width())
	if d := diffBits(base, blocksOf(res)); d != "" {
		t.Fatalf("%s: not bit-identical to the sequential, unperturbed run: %s", label, d)
	}
}

// maxProducts bounds an input's GEMM count, Σ|C(K)|² over the supernodes.
// The fuzzer fails an input that runs 10 s, and at 860,000 products (n = 200,
// width 1, natural order) one run takes 2–4 s on a 2-vCPU host without the
// race detector, ten times that with it. The corpus's largest input has 838.
const maxProducts = 20000

// lastBase is the baseline of the last input, keyed by the input without its
// second-run fields: a sweep over those builds and runs its baseline once.
var lastBase struct {
	key  pipelineInput
	eng  *Engine
	base map[blockmat.Key][]float64
}

// baseline builds the input's engine and checks its sequential, unperturbed
// run against the reference, the certificate and the plan's volumes. The
// engine is nil when the input is too costly or the factorization refuses
// the values.
func baseline(t *testing.T, in *pipelineInput) (*Engine, map[blockmat.Key][]float64) {
	g := in.matrix()
	perm := ordering.Compute(ordering.Method(in.Order%4), g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, etree.Options{Relax: int(in.Relax % 8), MaxWidth: dim(in.Width, 48)})
	products := 0
	for k := 0; k < an.BP.NumSnodes(); k++ {
		products += len(an.BP.Struct(k)) * len(an.BP.Struct(k))
	}
	if products > maxProducts {
		return nil, nil // too costly an input to run
	}
	z := in.shift()
	var lu *factor.LU
	var err error
	if z == 0 {
		lu, err = factor.Factorize(an.A, an.BP)
	} else {
		lu, err = factor.FactorizeShifted(an.A, z, an.BP)
	}
	if err != nil {
		return nil, nil // refused with its error: nothing to invert
	}
	ref := selinv.SelInv(lu)
	defer ref.Release()

	schemes, balancers := core.AllSchemes(), core.AllBalancers()
	plan := core.NewPlanConfig(an.BP, procgrid.New(dim(in.Pr, 8), dim(in.Pc, 8)), core.PlanConfig{
		Scheme: schemes[int(in.Scheme)%len(schemes)], Seed: in.PlanSeed, Symmetric: lu.Symmetric,
		Balancer: balancers[int(in.Balancer)%len(balancers)], Topo: core.Topology{CoresPerNode: int(in.Cores)},
	})
	label := fmt.Sprintf("%s %v %v %v", g.Name, lu.Elem, plan.Grid, plan.Scheme)
	eng := NewEngine(plan, lu)
	res, err := runUnder(eng, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	requireVolumesMatchPlan(t, label, plan, res.World, lu.Elem.Width())
	if c := certificate(t, an.A, res.Ainv, z); !(c <= 1e-12) {
		t.Errorf("%s: ‖diag((A − zI)·X) − 1‖∞ = %.3g", label, c)
	}
	base := blocksOf(res)
	requireMatchesReference(t, label, ref, base, plan.Grid.Size() == 1)
	return eng, base
}

// requireMatchesReference compares a run's blocks with the serial reference:
// bit for bit when exact, within 1e-9 otherwise.
func requireMatchesReference(t *testing.T, label string, ref *blockmat.BlockMatrix, got map[blockmat.Key][]float64, exact bool) {
	t.Helper()
	if len(got) != ref.NumBlocks() {
		t.Fatalf("%s: %d blocks computed, want %d", label, len(got), ref.NumBlocks())
	}
	for key, g := range got {
		want, ok := ref.Get(key.I, key.J)
		if !ok || len(g) != len(want.Data) {
			t.Fatalf("%s: block (%d,%d) is not the reference's shape", label, key.I, key.J)
		}
		for x, w := range want.Data {
			if exact && math.Float64bits(g[x]) != math.Float64bits(w) {
				t.Fatalf("%s: block (%d,%d) word %d: %x != %x, not bit-identical to the reference",
					label, key.I, key.J, x, math.Float64bits(g[x]), math.Float64bits(w))
			}
			if d := math.Abs(g[x] - w); !(d <= 1e-9) {
				t.Fatalf("%s: block (%d,%d) word %d off the reference by %g", label, key.I, key.J, x, d)
			}
		}
	}
}
