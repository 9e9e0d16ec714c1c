// Command scaling reproduces the performance experiments of §IV-B through
// the discrete-event network simulator:
//
//	Figure 8 — strong scaling of PSelInv for the DG_PNF14000 and audikw_1
//	           stand-ins across processor counts, for Flat-Tree,
//	           Binary-Tree and Shifted Binary-Tree, several placement
//	           seeds per point (mean ± std — the paper's error bars);
//	Figure 9 — computation vs communication time at small vs large P for
//	           Flat vs Shifted;
//	-width   — every tree scheme × balancer: the plan's exact count
//	           metrics next to the simulated makespan (BENCH_width.json).
//
// Wall-clock numbers are simulated (this repository has no 12,100-core
// Cray); the stand-in matrices are ~28× smaller than the paper's, so the
// processor axis is scaled down accordingly (EXPERIMENTS.md discusses the
// mapping). The reproduced result is the relative behaviour of the schemes.
//
// Every mode replays plans of a symbolic-only pipeline through the
// simulator; nothing here factorizes or runs the engine. The observed engine
// runs are `cmd/commvol -obs` (in process or -transport=tcp) and
// `cmd/pselinv -obs [-dag]`.
package main

import (
	"flag"
	"fmt"
	"os"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/netsim"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

var (
	flagFig8  = flag.Bool("fig8", false, "reproduce Figure 8 strong scaling")
	flagFig9  = flag.Bool("fig9", false, "reproduce Figure 9 time breakdown")
	flagAsym  = flag.Bool("asym", false, "compare the symmetric path against the general (asymmetric-value) path")
	flagAll   = flag.Bool("all", false, "run everything")
	flagQuick = flag.Bool("quick", false, "fewer processor counts and seeds")
	flagSeeds = flag.Int("seeds", 6, "placement seeds per point (paper: 6 runs)")

	flagWidth    = flag.Bool("width", false, "run the scheme × balancer sweep (exact plan counts + simulated makespan per cell) and write the artifact")
	flagWidthOut = flag.String("width-out", "BENCH_width.json", "artifact path for -width")
)

func main() {
	flag.Parse()
	if *flagSeeds < 1 {
		fmt.Fprintf(os.Stderr, "scaling: -seeds %d: need at least one placement seed\n", *flagSeeds)
		os.Exit(2)
	}
	if *flagWidth {
		if err := runWidth(*flagWidthOut); err != nil {
			fmt.Fprintln(os.Stderr, "scaling:", err)
			os.Exit(1)
		}
	}
	if *flagAll {
		*flagFig8, *flagFig9, *flagAsym = true, true, true
	}
	if !(*flagFig8 || *flagFig9 || *flagAsym) {
		if *flagWidth {
			return
		}
		flag.Usage()
		os.Exit(2)
	}

	// The paper sweeps 64…12100 ranks on matrices of 0.5–1.3M unknowns;
	// the stand-ins are ~28× smaller, so the sweep tops out at 2116 to
	// keep work-per-rank in the same regime.
	procCounts := []int{64, 121, 256, 324, 576, 1024, 1600, 2116}
	if *flagQuick {
		procCounts = []int{64, 256, 1024, 2116}
	}
	seeds := make([]uint64, *flagSeeds)
	for i := range seeds {
		seeds[i] = uint64(100 + i)
	}
	params := exp.ScaledEdisonParams()

	type standinFn func(int64) (*sparse.Generated, int, int)
	if *flagFig8 {
		for _, fn := range []standinFn{exp.ScalingPNFStandin, exp.ScalingAudikwStandin} {
			g, relax, mw := fn(2)
			pipe := exp.PrepareSymbolic(g, relax, mw)
			fmt.Printf("== Figure 8: running times for %s (n=%d, supernodes=%d) ==\n",
				g.Name, g.A.N, pipe.An.BP.NumSnodes())
			fmt.Printf("%7s %15s %15s %15s  (simulated s, mean of %d seeds ± std)\n",
				"P", "Flat-Tree", "Binary-Tree", "Shifted", len(seeds))
			pts := exp.MeasureScaling(pipe, procCounts, core.Schemes(), seeds, params)
			byP := map[int]map[core.Scheme]*exp.ScalingPoint{}
			for _, pt := range pts {
				if byP[pt.P] == nil {
					byP[pt.P] = map[core.Scheme]*exp.ScalingPoint{}
				}
				byP[pt.P][pt.Scheme] = pt
			}
			for _, p := range procCounts {
				flat := byP[p][core.FlatTree]
				bin := byP[p][core.BinaryTree]
				shift := byP[p][core.ShiftedBinaryTree]
				fmt.Printf("%7d %8.4f±%.4f %8.4f±%.4f %8.4f±%.4f\n",
					p, flat.Mean, flat.Std, bin.Mean, bin.Std, shift.Mean, shift.Std)
			}
			report(byP, procCounts)
			fmt.Println()
		}
	}

	if *flagFig9 {
		g, relax, mw := exp.ScalingPNFStandin(2)
		pipe := exp.PrepareSymbolic(g, relax, mw)
		fmt.Printf("== Figure 9: computation vs communication time for %s ==\n", g.Name)
		// The paper contrasts P=256 (compute-rich) with P=4096 (comm-
		// dominated); at our scale the corresponding pair is 64 vs 2116.
		for _, scheme := range []core.Scheme{core.FlatTree, core.ShiftedBinaryTree} {
			fmt.Printf("-- %v --\n", scheme)
			for _, p := range []int{64, 2116} {
				pt := exp.MeasureScaling(pipe, []int{p}, []core.Scheme{scheme}, seeds[:1], params)[0]
				fmt.Printf("  P=%-5d computation %8.4fs  communication %8.4fs  (comm/comp = %.2f)\n",
					p, pt.Compute, pt.Comm, pt.Comm/pt.Compute)
			}
		}
		fmt.Println()
	}

	if *flagAsym {
		runAsymSection(seeds, params)
	}
}

// runWidth runs the scheme × balancer sweep on the hierarchical topology (24
// ranks per node, as Edison): every scheme × balancer at each P, the plan's
// exact count metrics next to the simulated makespan, written as the
// BENCH_width.json artifact. The full run takes P ∈ {48, 192} and two
// placement seeds, -quick one P and one seed; -seeds does not apply, because
// each cell costs a DAG build plus a simulation per seed.
func runWidth(out string) error {
	g, relax, mw := exp.ScalingPNFStandin(2)
	pipe := exp.PrepareSymbolic(g, relax, mw)
	params := exp.ScaledEdisonParams()
	ps, seeds := []int{48, 192}, []uint64{100, 101}
	if *flagQuick {
		ps, seeds = []int{48}, []uint64{100}
	}
	fmt.Printf("== Tree schemes × balancers: %s, %d ranks/node ==\n", g.Name, params.CoresPerNode)
	sweep := exp.MeasureWidth(pipe, ps, seeds, params)
	fmt.Printf("%5s %-12s %-8s %9s %9s %9s %9s %7s %8s %8s %6s %8s %15s\n",
		"P", "scheme", "balancer", "total-MB", "maxsnt-MB", "colbc-MB", "rowrd-MB", "msgs",
		"flop-imb", "nnz-imb", "xedges", "xnode-MB", "makespan(s)")
	for _, c := range sweep.Cells {
		fmt.Printf("%5d %-12s %-8s %9.3f %9.3f %9.3f %9.3f %7d %8.3f %8.3f %6d %8.3f %8.4f±%.4f\n",
			c.P, c.Scheme, c.Balancer, c.TotalMB, c.MaxSentMB, c.ColBcastMaxMB, c.RowReduceMaxMB,
			c.Msgs, c.FlopImbalance, c.NNZImbalance, c.CrossEdges, c.CrossMB, c.MakespanMean, c.MakespanStd)
	}
	if err := exp.WriteWidth(out, sweep); err != nil {
		return err
	}
	fmt.Printf("artifact: %s\n\n", out)
	return nil
}

// runAsymSection compares the symmetric fast path against the general
// asymmetric-value path (§V extension): the general path pays for the
// extra Û broadcasts and upper-triangle reductions. First as exact traffic
// counts for complex values (two words per entry) on the benchmark's two DG
// problems at 4×4 — a PEXSI pole A − zI on the plan its values select and on
// the general one; the engine moves exactly the plan's bytes
// (TestMeasuredVolumesMatchPlanExactly) — then as simulated makespans.
func runAsymSection(seeds []uint64, params netsim.Params) {
	fmt.Println("== Complex values (A − zI): plan traffic, 4x4 grid, shifted, seed 1 ==")
	fmt.Printf("%-14s %-10s %12s %15s %10s\n", "matrix", "plan", "total (MB)", "max sent (MB)", "messages")
	for _, nx := range []int{16, 24} {
		g := sparse.DG2D(nx, nx, 4, 1)
		bp := exp.PrepareSymbolic(g, 4, 48).An.BP
		for _, symmetric := range []bool{true, false} {
			plan := core.NewPlanConfig(bp, procgrid.New(4, 4), core.PlanConfig{
				Scheme: core.ShiftedBinaryTree, Seed: 1, Symmetric: symmetric})
			var total, maxSent int64
			for _, b := range plan.PerRankTotalSent() {
				total += 2 * b
				maxSent = max(maxSent, 2*b)
			}
			msgs := 0 // sends + receives: every message twice
			for _, n := range plan.PerRankMsgs() {
				msgs += n
			}
			fmt.Printf("%-14s %-10s %12.6f %15.6f %10d\n", g.Name, map[bool]string{true: "symmetric", false: "general"}[symmetric],
				stats.MB(total), stats.MB(maxSent), msgs/2)
		}
	}
	fmt.Println()

	// The general path is the plan asymmetric values select: the same
	// pattern, so the same supernodes, with its values perturbed.
	pipeline := func(symmetric bool) *exp.Pipeline {
		g, relax, mw := exp.ScalingPNFStandin(2)
		if !symmetric {
			sparse.Asymmetrize(g, 99, 0.6)
		}
		return exp.PrepareSymbolic(g, relax, mw)
	}
	sym, general := pipeline(true), pipeline(false)
	fmt.Println("== Ablation: symmetric path vs general (asymmetric-value) path ==")
	fmt.Printf("%7s %18s %18s %10s\n", "P", "symmetric (s)", "general (s)", "overhead")
	for _, p := range []int{64, 576, 2116} {
		mean := func(pipe *exp.Pipeline) float64 {
			return exp.MeasureScaling(pipe, []int{p}, []core.Scheme{core.ShiftedBinaryTree}, seeds, params)[0].Mean
		}
		s, a := mean(sym), mean(general)
		fmt.Printf("%7d %18.4f %18.4f %9.2fx\n", p, s, a, a/s)
	}
	fmt.Println()
}

// report prints the paper's headline comparisons: average speedups and the
// variability reduction of the shifted scheme over the flat baseline.
func report(byP map[int]map[core.Scheme]*exp.ScalingPoint, procCounts []int) {
	var speedAll, speedBig, stdRatio []float64
	maxSpeed := 0.0
	for _, p := range procCounts {
		flat := byP[p][core.FlatTree]
		shift := byP[p][core.ShiftedBinaryTree]
		sp := flat.Mean / shift.Mean
		speedAll = append(speedAll, sp)
		if p >= 1024 {
			speedBig = append(speedBig, sp)
		}
		if sp > maxSpeed {
			maxSpeed = sp
		}
		if shift.Std > 0 {
			stdRatio = append(stdRatio, flat.Std/shift.Std)
		}
	}
	fmt.Printf("speedup Shifted vs Flat: avg %.2fx, avg(P>=1024) %.2fx, max %.2fx",
		stats.Summarize(speedAll).Mean, stats.Summarize(speedBig).Mean, maxSpeed)
	// With one placement seed every std is zero: there is no ratio to print.
	if len(stdRatio) > 0 {
		fmt.Printf("; run-to-run std reduction avg %.2fx", stats.Summarize(stdRatio).Mean)
	}
	fmt.Println()
}
