// Chaos regression sweeps: the engine must produce bit-identical results
// under seeded adversarial message delivery, and the harness must turn
// deadlocks into actionable reports. The sweep runner is chaosSweep
// (sweep_test.go).
package pselinv_test

import (
	"flag"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"math"

	"pselinv/internal/blockmat"
	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/etree"
	"pselinv/internal/factor"
	"pselinv/internal/netsim"
	"pselinv/internal/ordering"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// -chaos-seeds sets the sweep width; CI uses a smaller value, the default
// satisfies the ≥16-seed acceptance bar.
var chaosSeeds = flag.Int("chaos-seeds", 16, "seeds per chaos sweep")

// -balancer runs every chaos sweep under a non-default supernode→process
// map (CI sweeps -balancer=work): whatever the owner map, the adversary
// must not move a bit of that plan's result.
var chaosBalancer = flag.String("balancer", "cyclic", "supernode→process balancer for the chaos sweeps: "+strings.Join(core.BalancerSlugs(), "|"))

// chaosBalancerChoice resolves -balancer once per test.
func chaosBalancerChoice(t testing.TB) core.Balancer {
	t.Helper()
	b, err := core.ParseBalancer(*chaosBalancer)
	if err != nil {
		t.Fatalf("-balancer: %v", err)
	}
	return b
}

const chaosTimeout = 60 * time.Second

// chaosEngine builds an engine for a (matrix, grid) pair.
func chaosEngine(t testing.TB, g *sparse.Generated, opt etree.Options,
	grid *procgrid.Grid, symmetric bool) *pselinv.Engine {
	t.Helper()
	return chaosEngineScheme(t, g, opt, grid, symmetric, core.ShiftedBinaryTree, 0)
}

// chaosEngineScheme is chaosEngine with an explicit tree scheme and
// rank→node packing (coresPerNode 0 keeps the default topology).
func chaosEngineScheme(t testing.TB, g *sparse.Generated, opt etree.Options,
	grid *procgrid.Grid, symmetric bool, scheme core.Scheme, coresPerNode int) *pselinv.Engine {
	t.Helper()
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.Analyze(g.A.Permute(perm), perm, opt)
	lu, err := factor.Factorize(an.A, an.BP)
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	plan := core.NewPlanConfig(an.BP, grid, core.PlanConfig{
		Scheme: scheme, Seed: 1, Symmetric: symmetric,
		Topo:     core.Topology{CoresPerNode: coresPerNode},
		Balancer: chaosBalancerChoice(t),
	})
	return pselinv.NewEngine(plan, lu)
}

func TestChaosSweepP4(t *testing.T) {
	eng := chaosEngine(t, sparse.Grid2D(6, 6, 3), etree.Options{Relax: 2, MaxWidth: 6},
		procgrid.New(2, 2), true)
	chaosSweep(t, eng, chaos.Config{},
		seedRange(1000, *chaosSeeds), chaosTimeout)
}

func TestChaosSweepP16(t *testing.T) {
	// Skew delays with the simulated network's latency inhomogeneity, as
	// the scaling experiments do.
	net := netsim.DefaultParams()
	eng := chaosEngine(t, sparse.Grid2D(8, 8, 2), etree.Options{Relax: 2, MaxWidth: 6},
		procgrid.New(4, 4), true)
	chaosSweep(t, eng, chaos.Config{Net: &net},
		seedRange(2000, *chaosSeeds), chaosTimeout)
}

func TestChaosSweepP64(t *testing.T) {
	eng := chaosEngine(t, sparse.Grid2D(10, 10, 5), etree.Options{Relax: 1, MaxWidth: 4},
		procgrid.New(8, 8), true)
	chaosSweep(t, eng, chaos.Config{ReorderWindow: 12},
		seedRange(3000, *chaosSeeds), chaosTimeout)
}

// TestChaosSweepTopoSchemes runs the adversarial sweep over the
// topology-aware tree scheme at P=16 packed 8 ranks to a node (the node
// boundary splits the 4×4 grid's columns). The scheme changes message
// routing only, so every chaos seed must still reproduce the
// deterministic baseline bit for bit.
func TestChaosSweepTopoSchemes(t *testing.T) {
	for _, scheme := range []core.Scheme{core.TopoShiftedTree} {
		t.Run(scheme.Slug(), func(t *testing.T) {
			eng := chaosEngineScheme(t, sparse.Grid2D(8, 8, 2), etree.Options{Relax: 2, MaxWidth: 6},
				procgrid.New(4, 4), true, scheme, 8)
			chaosSweep(t, eng, chaos.Config{},
				seedRange(7000, *chaosSeeds), chaosTimeout)
		})
	}
}

// TestChaosSweepDag pins DAG-mode determinism under the adversary: with
// compute detoured through the worker pool AND message delivery perturbed,
// every run must still be bit-identical to the unperturbed baseline. The
// pool degree is raised so tasks genuinely run concurrently even on a
// single-core runner; 8 seeds per the acceptance bar, capped by
// -chaos-seeds for quick CI smokes.
func TestChaosSweepDag(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	seeds := 8
	if *chaosSeeds < seeds {
		seeds = *chaosSeeds
	}
	eng := chaosEngine(t, sparse.Grid2D(7, 7, 4), etree.Options{Relax: 2, MaxWidth: 6},
		procgrid.New(2, 2), true)
	eng.DAG = true
	chaosSweep(t, eng, chaos.Config{},
		seedRange(5000, seeds), chaosTimeout)
}

// TestChaosDagMatchesSequentialBaseline closes the triangle: a chaos-
// perturbed DAG run must match not only its own baseline but the
// sequential baseline, seed for seed.
func TestChaosDagMatchesSequentialBaseline(t *testing.T) {
	dense.SetWorkers(4)
	defer dense.SetWorkers(0)
	run := func(dag bool, cc *chaos.Config) map[[2]int][]float64 {
		eng := chaosEngine(t, sparse.Grid2D(6, 6, 5), etree.Options{Relax: 2, MaxWidth: 6},
			procgrid.New(2, 2), true)
		eng.DAG = dag
		eng.Chaos = cc
		res, err := eng.Run(chaosTimeout)
		if err != nil {
			t.Fatalf("dag=%v chaos=%v: %v", dag, cc != nil, err)
		}
		snap := map[[2]int][]float64{}
		res.Ainv.Range(func(key blockmat.Key, b *dense.Matrix) {
			snap[[2]int{key.I, key.J}] = append([]float64(nil), b.Data...)
		})
		res.Release()
		return snap
	}
	seq := run(false, nil)
	for _, cc := range []*chaos.Config{nil, {Seed: 42}} {
		got := run(true, cc)
		if len(got) != len(seq) {
			t.Fatalf("chaos=%v: block counts differ", cc != nil)
		}
		for key, want := range seq {
			g := got[key]
			for x := range want {
				if math.Float64bits(g[x]) != math.Float64bits(want[x]) {
					t.Fatalf("chaos=%v: block (%d,%d) not bit-identical to sequential", cc != nil, key[0], key[1])
				}
			}
		}
	}
}

func TestChaosSweepAsymmetricPath(t *testing.T) {
	// The general path has its own reductions (Col-Reduce, asymmetric diag
	// contributions); sweep them too.
	g := sparse.Asymmetrize(sparse.Grid2D(6, 6, 3), 11, 0.6)
	eng := chaosEngine(t, g, etree.Options{Relax: 2, MaxWidth: 6}, procgrid.New(3, 3), false)
	chaosSweep(t, eng, chaos.Config{},
		seedRange(4000, *chaosSeeds), chaosTimeout)
}

// TestChaosCrashProducesDeadlockReport injects a rank crash and checks the
// structured post-mortem: the crash is identified as injected, surviving
// ranks are snapshotted in their blocked states, and in-flight messages are
// annotated with their collective.
func TestChaosCrashProducesDeadlockReport(t *testing.T) {
	eng := chaosEngine(t, sparse.Grid2D(6, 6, 3), etree.Options{Relax: 2, MaxWidth: 6},
		procgrid.New(2, 2), true)
	world := simmpi.NewWorld(4)
	chaos.Install(chaos.Config{Seed: 5, CrashRank: 2, CrashAfter: 2}, world)
	_, err := eng.RunWorld(world, 1500*time.Millisecond)
	if err == nil {
		t.Fatal("expected the injected crash to deadlock the run")
	}
	te, ok := err.(*simmpi.TimeoutError)
	if !ok {
		t.Fatalf("error is %T (%v), want *simmpi.TimeoutError", err, err)
	}
	foundCrash := false
	for _, p := range te.Panics {
		if c, ok := p.Value.(*chaos.Crash); ok && c.Rank == 2 {
			foundCrash = true
		}
	}
	if !foundCrash {
		t.Fatalf("timeout error does not identify the injected crash: %v", te)
	}
	rep := chaos.Snapshot(world, eng.Plan, err)
	defer world.Close()
	if len(rep.Stuck) == 0 {
		t.Fatal("no stuck ranks in the report; the crash should strand peers")
	}
	s := rep.String()
	for _, want := range []string{"stuck", "panicked", "injected crash of rank 2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
	// In-flight collective messages must carry their tree position.
	for _, m := range rep.Pending {
		if m.InTree && m.TreeParent < -1 {
			t.Fatalf("bad tree annotation: %+v", m)
		}
	}
}

// TestChaosDroppedForwardIsCaught is the permanent form of the mutation
// check: losing a single broadcast forward must be caught by the harness —
// the run deadlocks instead of silently producing a wrong result, and byte
// conservation pinpoints the loss.
func TestChaosDroppedForwardIsCaught(t *testing.T) {
	eng := chaosEngine(t, sparse.Grid2D(8, 8, 2), etree.Options{Relax: 2, MaxWidth: 6},
		procgrid.New(4, 4), true)
	var dropped int32
	world := simmpi.NewWorld(16)
	chaos.Install(chaos.Config{
		Seed: 9,
		Drop: func(m *simmpi.Message) bool {
			if m.Src == m.Dst {
				return false
			}
			if kind, _, _ := core.DecodeOpKey(m.Tag); kind != core.OpColBcast {
				return false
			}
			return atomic.CompareAndSwapInt32(&dropped, 0, 1)
		},
	}, world)
	_, err := eng.RunWorld(world, 1500*time.Millisecond)
	if atomic.LoadInt32(&dropped) == 0 {
		world.Close()
		t.Skip("no cross-rank Col-Bcast message eligible to drop on this configuration")
	}
	if err == nil {
		t.Fatal("losing a broadcast forward did not fail the run")
	}
	rep := chaos.Snapshot(world, eng.Plan, err)
	defer world.Close()
	if cerr := world.CheckConservation(); cerr == nil {
		t.Fatal("conservation check did not flag the dropped message")
	}
	if len(rep.Stuck) == 0 {
		t.Fatalf("expected stuck ranks in the report:\n%s", rep)
	}
}

// TestChaosOptionsSeed exercises the public API wiring: Options.ChaosSeed
// must install the adversary on the engine world.
func TestChaosOptionsSeed(t *testing.T) {
	eng := chaosEngine(t, sparse.Grid2D(6, 6, 3), etree.Options{Relax: 2, MaxWidth: 6},
		procgrid.New(2, 2), true)
	eng.Chaos = &chaos.Config{Seed: 42}
	res, err := eng.Run(chaosTimeout)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if err := res.World.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}
