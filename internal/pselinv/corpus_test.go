package pselinv

import (
	"testing"

	"pselinv/internal/core"
	"pselinv/internal/ordering"
)

// vary returns every input of ins n times, the i-th copy changed by set.
func vary(ins []pipelineInput, n int, set func(in *pipelineInput, i int)) []pipelineInput {
	var out []pipelineInput
	for _, in := range ins {
		for i := 0; i < n; i++ {
			c := in
			set(&c, i)
			out = append(out, c)
		}
	}
	return out
}

// onGrids returns every input of ins on each Pr×Pc grid.
func onGrids(ins []pipelineInput, dims ...[2]uint8) []pipelineInput {
	return vary(ins, len(dims), func(in *pipelineInput, i int) { in.Pr, in.Pc = dims[i][0], dims[i][1] })
}

// withSchemes returns every input of ins under each scheme.
func withSchemes(ins []pipelineInput, schemes ...core.Scheme) []pipelineInput {
	return vary(ins, len(schemes), func(in *pipelineInput, i int) { in.Scheme = uint8(schemes[i]) })
}

// withBalancers returns every input of ins under each balancer.
func withBalancers(ins []pipelineInput) []pipelineInput {
	bs := core.AllBalancers()
	return vary(ins, len(bs), func(in *pipelineInput, i int) { in.Balancer = uint8(bs[i]) })
}

// chaosSeeds returns every input of ins under the adversary seeds [from, from+n).
func chaosSeeds(ins []pipelineInput, from uint64, n int) []pipelineInput {
	return vary(ins, n, func(in *pipelineInput, i int) { in.Chaos = from + uint64(i) })
}

// chaosSweep is a retired chaos sweep: 16 adversary seeds on the cyclic map,
// and the 8 its CI job ran again with the work-greedy one.
func chaosSweep(in pipelineInput, from uint64) []pipelineInput {
	work := in
	work.Balancer = uint8(core.WorkBalancer)
	return append(chaosSeeds([]pipelineInput{in}, from, 16), chaosSeeds([]pipelineInput{work}, from, 8)...)
}

// bothSymmetries returns in, and in with its values Asymmetrized (seed 7,
// eps 0.4): the inputs of the symmetric and of the general plan.
func bothSymmetries(in pipelineInput) []pipelineInput {
	asym := in
	asym.ASeed, asym.Eps = 7, 0.4
	return []pipelineInput{in, asym}
}

// corpusGroup is the cases one test ran before FuzzPipeline held them all.
type corpusGroup struct {
	name  string // the test that ran the cases
	cases []pipelineInput
}

// runGroup checks the cases of corpus group name one after another.
func runGroup(t *testing.T, name string) {
	withPoolWorkers(t, 4)
	for _, g := range pipelineCorpus() {
		if g.name == name {
			for x := range g.cases {
				checkPipeline(t, &g.cases[x])
			}
			return
		}
	}
	t.Fatalf("no corpus group %s", name)
}

// The tests whose cases FuzzPipeline's corpus took over keep their names as
// views of their group, so a failing case still names the knob it varies.
func TestChaosSweepP4(t *testing.T)             { runGroup(t, "TestChaosSweepP4") }
func TestChaosSweepP16(t *testing.T)            { runGroup(t, "TestChaosSweepP16") }
func TestChaosSweepP64(t *testing.T)            { runGroup(t, "TestChaosSweepP64") }
func TestChaosSweepAsymmetricPath(t *testing.T) { runGroup(t, "TestChaosSweepAsymmetricPath") }
func TestChaosSweepDag(t *testing.T)            { runGroup(t, "TestChaosSweepDag") }
func TestChaosSweepTopoSchemes(t *testing.T) {
	t.Run("toposhifted", func(t *testing.T) { runGroup(t, "TestChaosSweepTopoSchemes") })
}
func TestChaosDagMatchesSequentialBaseline(t *testing.T) {
	runGroup(t, "TestChaosDagMatchesSequentialBaseline")
}
func TestChaosOptionsSeed(t *testing.T)             { runGroup(t, "TestChaosOptionsSeed") }
func TestComplexChaosSweep(t *testing.T)            { runGroup(t, "TestComplexChaosSweep") }
func TestComplexParallelMatchesSerial(t *testing.T) { runGroup(t, "TestComplexParallelMatchesSerial") }
func TestComplexParallelDagBitIdentical(t *testing.T) {
	runGroup(t, "TestComplexParallelDagBitIdentical")
}
func TestComplexMatrixZoo(t *testing.T)             { runGroup(t, "TestComplexMatrixZoo") }
func TestBalancersMatchReference(t *testing.T)      { runGroup(t, "TestBalancersMatchReference") }
func TestBalancersMatchReferenceDag(t *testing.T)   { runGroup(t, "TestBalancersMatchReferenceDag") }
func TestBalancersMatchReferenceAsym(t *testing.T)  { runGroup(t, "TestBalancersMatchReferenceAsym") }
func TestDagByteIdenticalToSequential(t *testing.T) { runGroup(t, "TestDagByteIdenticalToSequential") }
func TestDagByteIdenticalTopoSchemes(t *testing.T)  { runGroup(t, "TestDagByteIdenticalTopoSchemes") }
func TestDagReproducibleAcrossRunsAsymmetric(t *testing.T) {
	runGroup(t, "TestDagReproducibleAcrossRunsAsymmetric")
}
func TestParallelMatchesSequentialAcrossGrids(t *testing.T) {
	runGroup(t, "TestParallelMatchesSequentialAcrossGrids")
}
func TestParallelMatchesSequentialAllSchemes(t *testing.T) {
	runGroup(t, "TestParallelMatchesSequentialAllSchemes")
}
func TestParallelMatchesSequentialMatrixZoo(t *testing.T) {
	runGroup(t, "TestParallelMatchesSequentialMatrixZoo")
}
func TestParallelManySeeds(t *testing.T) { runGroup(t, "TestParallelManySeeds") }
func TestAsymmetricMatchesSequentialAcrossGrids(t *testing.T) {
	runGroup(t, "TestAsymmetricMatchesSequentialAcrossGrids")
}
func TestAsymmetricAllSchemes(t *testing.T) { runGroup(t, "TestAsymmetricAllSchemes") }
func TestQuickParallelMatchesSequential(t *testing.T) {
	runGroup(t, "TestQuickParallelMatchesSequential")
}
func TestQuickAsymmetricParallel(t *testing.T) { runGroup(t, "TestQuickAsymmetricParallel") }

// pipelineCorpus is FuzzPipeline's seed corpus, by the test that ran each
// group of cases. Unless a case says otherwise it is nested dissection, the
// shifted binary tree with plan seed 1, the cyclic map, one rank, real
// values.
func pipelineCorpus() []corpusGroup {
	nd, mmd := uint8(ordering.NestedDissection), uint8(ordering.MinimumDegree)
	mk := func(gen, d1, d2, d3, d4 uint8, seed int64, relax, width uint8) pipelineInput {
		return pipelineInput{Gen: gen, D1: d1, D2: d2, D3: d3, D4: d4, MSeed: seed, Order: nd,
			Relax: relax, Width: width, Scheme: uint8(core.ShiftedBinaryTree), Pr: 1, Pc: 1, PlanSeed: 1}
	}
	grid2d := func(nx, ny uint8, seed int64, relax, width uint8) pipelineInput {
		return mk(genGrid2D, nx, ny, 0, 0, seed, relax, width)
	}
	// randomAsym is sparse.RandomAsym: RandomSym, Asymmetrized by seed+1, eps 0.8.
	randomAsym := func(n, deg uint8, seed int64, relax, width uint8) pipelineInput {
		g := mk(genRandomSym, n, deg, 0, 0, seed, relax, width)
		g.ASeed, g.Eps = seed+1, 0.8
		return g
	}
	zoo := func(relax, width uint8) []pipelineInput {
		return []pipelineInput{
			mk(genBanded, 20, 2, 0, 0, 1, relax, width),
			mk(genGrid3D, 3, 3, 3, 0, 2, relax, width),
			mk(genRandomSym, 40, 4, 0, 0, 3, relax, width),
			mk(genDG2D, 3, 3, 0, 3, 4, relax, width),
		}
	}
	one := func(in pipelineInput) []pipelineInput { return []pipelineInput{in} }
	set := func(ins []pipelineInput, f func(in *pipelineInput)) []pipelineInput {
		return vary(ins, 1, func(in *pipelineInput, _ int) { f(in) })
	}
	flat, binary, shifted := core.FlatTree, core.BinaryTree, core.ShiftedBinaryTree
	var out []corpusGroup
	add := func(name string, ins ...[]pipelineInput) {
		g := corpusGroup{name: name}
		for _, x := range ins {
			g.cases = append(g.cases, x...)
		}
		out = append(out, g)
	}

	// The chaos sweeps: P = 4; P = 16 with delays skewed by the network
	// model; P = 64 with reorder window 12; the topology-aware tree at 8
	// ranks a node; the general plan.
	p4 := grid2d(6, 6, 3, 2, 6)
	p4.Pr, p4.Pc = 2, 2
	add("TestChaosSweepP4", chaosSweep(p4, 1000))
	p16 := grid2d(8, 8, 2, 2, 6)
	p16.Pr, p16.Pc, p16.Net = 4, 4, true
	add("TestChaosSweepP16", chaosSweep(p16, 2000))
	p64 := grid2d(10, 10, 5, 1, 4)
	p64.Pr, p64.Pc, p64.Window = 8, 8, 12
	add("TestChaosSweepP64", chaosSweep(p64, 3000))
	topo := grid2d(8, 8, 2, 2, 6)
	topo.Pr, topo.Pc, topo.Scheme, topo.Cores = 4, 4, uint8(core.TopoShiftedTree), 8
	add("TestChaosSweepTopoSchemes", chaosSweep(topo, 7000))
	asym := grid2d(6, 6, 3, 2, 6)
	asym.ASeed, asym.Eps, asym.Pr, asym.Pc = 11, 0.6, 3, 3
	add("TestChaosSweepAsymmetricPath", chaosSweep(asym, 4000))
	// 8 seeds in DAG mode, on either map.
	dag := grid2d(7, 7, 4, 2, 6)
	dag.Pr, dag.Pc, dag.DAG = 2, 2, true
	add("TestChaosSweepDag", chaosSeeds(withBalancers(one(dag)), 5000, 8))
	// DAG unperturbed and under seed 42.
	dagBase := grid2d(6, 6, 5, 2, 6)
	dagBase.Pr, dagBase.Pc, dagBase.DAG = 2, 2, true
	add("TestChaosDagMatchesSequentialBaseline", one(dagBase), set(one(dagBase), func(in *pipelineInput) { in.Chaos = 42 }))
	// Seed 42 at P = 4, on either map (it tested Engine.Chaos).
	add("TestChaosOptionsSeed", set(withBalancers(one(p4)), func(in *pipelineInput) { in.Chaos = 42 }))

	// z = 0.5+1i on both plans, seeds 9000.. and 9500...
	cz := grid2d(6, 6, 3, 2, 6)
	cz.Pr, cz.Pc, cz.ZRe, cz.ZIm = 2, 2, 0.5, 1
	czs := bothSymmetries(cz)
	add("TestComplexChaosSweep", chaosSeeds(czs[:1], 9000, 16), chaosSeeds(czs[1:], 9500, 16))
	// z = 0.5+1.5i.
	cs := grid2d(6, 6, 3, 2, 6)
	cs.ZRe, cs.ZIm = 0.5, 1.5
	add("TestComplexParallelMatchesSerial",
		withBalancers(withSchemes(onGrids(bothSymmetries(cs), [2]uint8{1, 1}, [2]uint8{2, 2}), flat, binary, shifted)))
	// z = −0.25+2i in DAG mode.
	cd := grid2d(6, 6, 4, 2, 6)
	cd.ZRe, cd.ZIm, cd.DAG = -0.25, 2, true
	add("TestComplexParallelDagBitIdentical", withBalancers(onGrids(bothSymmetries(cd), [2]uint8{1, 1}, [2]uint8{2, 2})))
	// z = 1+2i on 2×2.
	var czoo []pipelineInput
	for _, g := range zoo(1, 8) {
		czoo = append(czoo, bothSymmetries(g)...)
	}
	add("TestComplexMatrixZoo", onGrids(set(czoo, func(in *pipelineInput) { in.ZRe, in.ZIm = 1, 2 }), [2]uint8{2, 2}))

	// The balancers, plan seed 3: on the paper's schemes, in DAG mode, on
	// the general plan.
	bal := grid2d(8, 8, 3, 2, 8)
	bal.PlanSeed = 3
	add("TestBalancersMatchReference", withBalancers(withSchemes(onGrids(one(bal), [2]uint8{2, 2}, [2]uint8{4, 4}), flat, binary, shifted)))
	add("TestBalancersMatchReferenceDag", withBalancers(onGrids(set(one(bal), func(in *pipelineInput) { in.DAG = true }), [2]uint8{4, 4})))
	add("TestBalancersMatchReferenceAsym", withBalancers(onGrids(set(one(bal), func(in *pipelineInput) { in.ASeed, in.Eps = 7, 0.6 }), [2]uint8{4, 4})))
	dagBal := set(one(bal), func(in *pipelineInput) { in.DAG = true })
	add("TestDagByteIdenticalToSequential", withSchemes(onGrids(dagBal, [2]uint8{1, 1}, [2]uint8{2, 2}, [2]uint8{4, 4}), flat, binary, shifted))
	add("TestDagByteIdenticalTopoSchemes",
		set(onGrids(dagBal, [2]uint8{4, 4}), func(in *pipelineInput) { in.Scheme, in.Cores = uint8(core.TopoShiftedTree), 8 }))
	// RandomAsym(60, 5, 2), plan seed 9.
	ra := randomAsym(60, 5, 2, 2, 6)
	ra.Pr, ra.Pc, ra.PlanSeed, ra.DAG = 2, 2, 9, true
	add("TestDagReproducibleAcrossRunsAsymmetric", one(ra))

	add("TestParallelMatchesSequentialAcrossGrids", onGrids(one(grid2d(7, 7, 3, 2, 8)), [2]uint8{1, 1}, [2]uint8{1, 3},
		[2]uint8{2, 2}, [2]uint8{3, 2}, [2]uint8{4, 3}, [2]uint8{5, 5}, [2]uint8{6, 5}))
	// Plan seed 7 on 3×4.
	all := grid2d(8, 6, 5, 2, 6)
	all.Pr, all.Pc, all.PlanSeed = 3, 4, 7
	add("TestParallelMatchesSequentialAllSchemes", withSchemes(one(all), flat, binary, shifted, core.RandomPermTree, core.Hybrid))
	// Plan seed 11 on 3×3.
	add("TestParallelMatchesSequentialMatrixZoo", set(onGrids(zoo(1, 8), [2]uint8{3, 3}), func(in *pipelineInput) { in.PlanSeed = 11 }))
	// Plan seeds 0..7 on 4×3.
	many := grid2d(6, 6, 9, 0, 4)
	many.Pr, many.Pc = 4, 3
	add("TestParallelManySeeds", vary(one(many), 8, func(in *pipelineInput, i int) { in.PlanSeed = uint64(i) }))
	ag := grid2d(7, 7, 3, 2, 8)
	ag.ASeed, ag.Eps = 11, 0.6
	add("TestAsymmetricMatchesSequentialAcrossGrids",
		onGrids(one(ag), [2]uint8{1, 1}, [2]uint8{2, 2}, [2]uint8{3, 4}, [2]uint8{4, 3}, [2]uint8{5, 5}))
	// RandomAsym(45, 4, 9), plan seed 5 on 3×3.
	as := randomAsym(45, 4, 9, 0, 6)
	as.Pr, as.Pc, as.PlanSeed = 3, 3, 5
	add("TestAsymmetricAllSchemes", withSchemes(one(as), flat, binary, shifted, core.RandomPermTree, core.Hybrid))
	// The quick.Check properties drew fresh random cases each run: random
	// patterns under minimum degree, relax 0..1, width 1..6, grids up to
	// 4×4, any plan seed. The fuzzer draws them now; four of each shape stay.
	var quickSym, quickAsym []pipelineInput
	for x, q := range []struct {
		n, deg, relax, width, pr, pc uint8
		scheme                       core.Scheme
	}{
		{15, 2, 0, 1, 1, 4, flat}, {27, 3, 1, 4, 3, 2, binary}, {39, 4, 0, 6, 4, 4, shifted}, {22, 2, 1, 3, 2, 3, core.Hybrid},
	} {
		sym := mk(genRandomSym, q.n, q.deg, 0, 0, int64(100+x), q.relax, q.width)
		sym.Order, sym.Pr, sym.Pc, sym.Scheme, sym.PlanSeed = mmd, q.pr, q.pc, uint8(q.scheme), 0x9e3779b97f4a7c15*uint64(x+1)
		asym := sym
		asym.ASeed, asym.Eps = sym.MSeed+1, 0.8
		quickSym, quickAsym = append(quickSym, sym), append(quickAsym, asym)
	}
	add("TestQuickParallelMatchesSequential", quickSym)
	add("TestQuickAsymmetricParallel", quickAsym)

	// The root package's public-API chaos test: Grid2D(12, 12, 4) in the
	// natural order at the public defaults (relax 4) and MaxWidth 4, nine
	// ranks, plan seed 5, adversary seeds 70..77.
	api := grid2d(12, 12, 4, 4, 4)
	api.Order, api.Pr, api.Pc, api.PlanSeed = uint8(ordering.Natural), 3, 3, 5
	add("TestChaosSeedOptionPublicAPI", chaosSeeds(one(api), 70, 8))
	mv := grid2d(8, 8, 1, 2, 8)
	mv.Pr, mv.Pc, mv.Chaos = 3, 3, 13
	add("TestMeasureVolumesChaosMatchesUnperturbed", one(mv))
	// internal/distrun ran the adversary on four TCP workers: its problem,
	// in process.
	tcp := grid2d(12, 12, 3, 2, 8)
	tcp.Pr, tcp.Pc, tcp.Scheme, tcp.Chaos = 2, 2, uint8(binary), 7
	add("TestDistributedChaosMatchesInProcess", one(tcp))
	return out
}
