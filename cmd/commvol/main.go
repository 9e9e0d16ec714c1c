// Command commvol reproduces the communication-load experiments of §IV-A:
//
//	Table I   — volume sent during Col-Bcast (audikw_1 stand-in, 46×46 grid)
//	Table II  — volume received during Row-Reduce for the six-matrix suite
//	Figure 4  — Col-Bcast volume distribution histograms
//	Figure 5  — Col-Bcast volume heat maps (Flat / Binary / Shifted)
//	Figure 6  — Flat-Tree heat map on a 16×16 grid (imbalance milder at small P)
//	Figure 7  — Row-Reduce heat maps (Flat vs Shifted)
//
// Volumes are measured, not modeled: the real parallel engine runs on a
// simulated MPI world with one goroutine per rank and byte counters per
// communication class. Matrices are laptop-scale stand-ins, so volumes are
// proportionally smaller than the paper's; the comparisons between schemes
// are the reproduced result.
//
// Usage:
//
//	commvol -table1 -table2 -fig4 -fig5 -fig6 -fig7   # or -all
//	commvol -all -quick                               # smaller grid & matrices
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pselinv/internal/chaos"
	"pselinv/internal/core"
	"pselinv/internal/dense"
	"pselinv/internal/distrun"
	"pselinv/internal/exp"
	"pselinv/internal/procgrid"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

var (
	flagTable1   = flag.Bool("table1", false, "reproduce Table I")
	flagTable2   = flag.Bool("table2", false, "reproduce Table II")
	flagFig4     = flag.Bool("fig4", false, "reproduce Figure 4 histograms")
	flagFig5     = flag.Bool("fig5", false, "reproduce Figure 5 heat maps")
	flagFig6     = flag.Bool("fig6", false, "reproduce Figure 6 small-grid heat map")
	flagFig7     = flag.Bool("fig7", false, "reproduce Figure 7 Row-Reduce heat maps")
	flagAll      = flag.Bool("all", false, "run every experiment")
	flagQuick    = flag.Bool("quick", false, "smaller grid and matrices (seconds instead of minutes)")
	flagSeed     = flag.Int64("seed", 1, "matrix and shift seed")
	flagCSV      = flag.Bool("csv", false, "emit heat maps as CSV instead of ASCII")
	flagPr       = flag.Int("pr", 24, "main grid rows (Pr; columns default to the same)")
	flagPc       = flag.Int("pc", 0, "main grid columns (0 = -pr, i.e. square; rectangular grids like -pr 4 -pc 2 give P=8 distributed runs)")
	flag46       = flag.Bool("table1paper", false, "Table I on the paper's literal 46x46 grid via the analytic volume model (no engine run)")
	flagWork     = flag.Int("workers", 0, "dense-kernel worker pool size (0 = GOMAXPROCS)")
	flagChaos    = flag.Uint64("chaos-seed", 0, "non-zero: run every engine measurement under the seeded chaos adversary (adversarial message reordering; volumes and numerics unchanged)")
	flagObs      = flag.Bool("obs", false, "re-run the main measurement with the communication substrate instrumented: JSON reports, merged Chrome traces, and measured forwarding chains per scheme. With -transport=tcp each rank is a real OS process: the per-rank snapshots are streamed back, clock-aligned onto rank 0 and merged into one report whose matrices are conservation-checked against the workers' counters")
	flagObsOut   = flag.String("obs-out", "obs-out", "directory for -obs artifacts")
	flagSchemes  = flag.String("schemes", "", "comma-separated tree schemes to measure (empty = the paper's flat,binary,shifted; valid: "+strings.Join(core.SchemeSlugs(), "|")+")")
	flagBalancer = flag.String("balancer", "cyclic", "supernode→process balancer: "+strings.Join(core.BalancerSlugs(), "|"))
	flagCPN      = flag.Int("cores-per-node", 0, "ranks per node consumed by the topology-aware schemes (0 = Edison default 24)")

	flagTransport = flag.String("transport", "inproc", "communication substrate: inproc (goroutine mailboxes, one process) or tcp (one OS process per rank on localhost; byte counters are transport-invariant, so volumes match inproc exactly)")
	flagTimeout   = flag.Duration("timeout", 20*time.Minute, "per-measurement engine deadline; on expiry the error includes a snapshot of where every rank was blocked")
)

// schemeList resolves -schemes (empty keeps the paper's three-scheme
// comparison); an unknown slug is a hard error naming the valid set.
func schemeList() []core.Scheme {
	if *flagSchemes == "" {
		return core.Schemes()
	}
	var out []core.Scheme
	for _, name := range strings.Split(*flagSchemes, ",") {
		s, err := core.ParseScheme(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "commvol: %v\n", err)
			os.Exit(2)
		}
		out = append(out, s)
	}
	return out
}

// balancerChoice resolves -balancer; an unknown slug is a hard error
// naming the valid set.
func balancerChoice() core.Balancer {
	b, err := core.ParseBalancer(*flagBalancer)
	if err != nil {
		fmt.Fprintf(os.Stderr, "commvol: %v\n", err)
		os.Exit(2)
	}
	return b
}

// balancerSlug is balancerChoice in the form the distrun spec carries.
func balancerSlug() string {
	return balancerChoice().Slug()
}

// chaosCfg returns the adversary configuration selected by -chaos-seed
// (nil when the flag is unset).
func chaosCfg() *chaos.Config {
	if *flagChaos == 0 {
		return nil
	}
	return &chaos.Config{Seed: *flagChaos, DupDetect: true}
}

func main() {
	distrun.MaybeWorker() // re-exec hook: with -transport=tcp this binary is its own worker
	flag.Parse()
	switch *flagTransport {
	case "inproc", "tcp":
	default:
		fmt.Fprintf(os.Stderr, "commvol: unknown -transport %q (want inproc or tcp)\n", *flagTransport)
		os.Exit(2)
	}
	fmt.Printf("dense kernel workers: %d\n", dense.SetWorkers(*flagWork))
	if *flagChaos != 0 {
		fmt.Printf("chaos adversary active (seed %d): message delivery adversarially reordered\n", *flagChaos)
	}
	if *flagAll {
		*flagTable1, *flagTable2 = true, true
		*flagFig4, *flagFig5, *flagFig6, *flagFig7 = true, true, true, true
	}
	if !(*flagTable1 || *flagTable2 || *flagFig4 || *flagFig5 || *flagFig6 || *flagFig7 || *flag46 || *flagObs) {
		flag.Usage()
		os.Exit(2)
	}

	if *flag46 {
		table1Paper()
	}

	// The paper uses a 46×46 grid for audikw_1 (N = 943,695); the stand-in
	// is ~115× smaller, so the default grid shrinks to 24×24 to keep the
	// work-per-rank and tree-width-to-grid ratios comparable (EXPERIMENTS.md
	// details the scaling). Use -pr to override, e.g. -pr 46 for the
	// literal grid.
	pc := *flagPc
	if pc <= 0 {
		pc = *flagPr
	}
	grid := procgrid.New(*flagPr, pc)
	smallGrid := procgrid.New(max(1, *flagPr/3), max(1, *flagPr/3)) // Figure 6's "small P" grid
	audikw := sparse.AudikwStandin(*flagSeed)
	if *flagQuick {
		// An explicit -pr/-pc wins over -quick's default grid shrink (so
		// `-quick -pr 2 -transport=tcp` runs P=4 real processes on the
		// quick matrix); -quick alone shrinks both.
		gridSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "pr" || f.Name == "pc" {
				gridSet = true
			}
		})
		if !gridSet {
			grid = procgrid.New(12, 12)
			smallGrid = procgrid.New(6, 6)
		}
		audikw = sparse.FE3D(7, 7, 7, 2, *flagSeed)
		audikw.Name = "audikw_1_standin_quick"
	}
	if *flagTransport == "tcp" && grid.Pr*grid.Pc > 64 {
		fmt.Fprintf(os.Stderr, "commvol: -transport=tcp would spawn %d OS processes; use a smaller grid (e.g. -quick -pr 2 for P=4)\n",
			grid.Pr*grid.Pc)
		os.Exit(2)
	}

	needMain := *flagTable1 || *flagFig4 || *flagFig5 || *flagFig7
	var mainMs []*exp.VolumeMeasurement
	var pipe *exp.Pipeline
	if needMain || *flagFig6 || *flagObs {
		var err error
		pipe, err = exp.Prepare(audikw, exp.DefaultRelax, exp.DefaultMaxWidth)
		check(err)
		fmt.Printf("# matrix %s: n=%d nnz(A)=%d nnz(L+U)=%d supernodes=%d grid=%v\n\n",
			audikw.Name, audikw.A.N, audikw.A.NNZ(), 2*pipe.An.BP.NNZScalars(), pipe.An.BP.NumSnodes(), grid)
	}
	if needMain {
		var err error
		mainMs, err = measure(audikw, pipe, grid, schemeList())
		check(err)
	}

	if *flagObs {
		// In-process and TCP runs differ in how they are launched; what comes
		// back is the same merged record either way.
		var ms []*exp.ObsMeasurement
		var err error
		if *flagTransport == "tcp" {
			fmt.Printf("== Observability: distributed runs on %v, one OS process per rank (merged reports + offset-corrected traces in %s) ==\n", grid, *flagObsOut)
			ms, err = distrun.MeasureObs(audikw, tcpSpec(grid), schemeList(), nil)
		} else {
			fmt.Printf("== Observability: instrumented runs on %v (reports + merged traces in %s) ==\n", grid, *flagObsOut)
			ms, err = exp.MeasureObs(pipe, grid, schemeList(), uint64(*flagSeed), 20*time.Minute,
				exp.RunOpts{Chaos: chaosCfg(), CoresPerNode: *flagCPN, Balancer: balancerChoice()})
		}
		check(err)
		for _, m := range ms {
			fmt.Printf("-- %v --\n%s\n", m.Scheme, m.Report.Summary())
			// The measured Col-Bcast traffic matrix is the per-link version
			// of the Figure 5 per-rank heat maps (embedded up to 64 ranks).
			if hm := m.Report.RenderMatrix("Col-Bcast"); hm != "" {
				fmt.Print(hm)
				fmt.Println()
			}
			if *flagTransport == "tcp" {
				fmt.Println("conservation: merged traffic-matrix marginals equal the workers' volume counters")
			}
		}
		paths, err := exp.WriteObsArtifacts(*flagObsOut, ms)
		check(err)
		fmt.Println("artifacts:")
		for _, p := range paths {
			fmt.Println("  " + p)
		}
		fmt.Println()
	}

	if *flagTable1 {
		fmt.Printf("== Table I: volume sent during Col-Bcast (MB) for %s on %v ==\n", audikw.Name, grid)
		fmt.Printf("%-22s %10s %10s %10s %10s\n", "Communication tree", "Min", "Max", "Median", "Std.dev")
		for _, m := range mainMs {
			fmt.Printf("%-22s %s\n", m.Scheme, m.ColBcastSummary().Row())
		}
		fmt.Println()
	}

	if *flagFig4 {
		fmt.Println("== Figure 4: Col-Bcast volume distribution (MB vs #ranks) ==")
		for _, m := range mainMs {
			fmt.Printf("-- %v --\n%s\n", m.Scheme, stats.NewHistogram(m.ColBcastSent, 12).Render(50))
		}
	}

	if *flagFig5 {
		fmt.Println("== Figure 5: Col-Bcast volume heat maps ==")
		// Shared scale across (a) and (c), as in the paper.
		lo, hi := sharedScale(mainMs[0].ColBcastSent, mainMs[2].ColBcastSent)
		for _, m := range mainMs {
			fmt.Printf("-- %v --\n", m.Scheme)
			hm := stats.NewHeatMap(grid.Pr, grid.Pc, m.ColBcastSent)
			if *flagCSV {
				fmt.Print(hm.CSV())
			} else if m.Scheme == core.BinaryTree {
				fmt.Print(hm.Render()) // own scale: stripes exceed the shared range
			} else {
				fmt.Print(hm.RenderScaled(lo, hi))
			}
			fmt.Println()
		}
	}

	if *flagFig6 {
		fmt.Printf("== Figure 6: Col-Bcast Flat-Tree heat map on %v ==\n", smallGrid)
		ms, err := measure(audikw, pipe, smallGrid, []core.Scheme{core.FlatTree})
		check(err)
		s := ms[0].ColBcastSummary()
		hm := stats.NewHeatMap(smallGrid.Pr, smallGrid.Pc, ms[0].ColBcastSent)
		if *flagCSV {
			fmt.Print(hm.CSV())
		} else {
			fmt.Print(hm.Render())
		}
		fmt.Printf("mean %.3f MB, std %.3f MB (%.1f%% of mean)\n\n", s.Mean, s.Std, 100*s.Std/s.Mean)
		if needMain {
			sBig := mainMs[0].ColBcastSummary()
			fmt.Printf("compare %v: std is %.1f%% of mean (paper: 10.2%% vs 19.2%%)\n\n",
				grid, 100*sBig.Std/sBig.Mean)
		}
	}

	if *flagFig7 {
		fmt.Println("== Figure 7: Row-Reduce received-volume heat maps ==")
		for _, m := range mainMs {
			if m.Scheme == core.BinaryTree {
				continue // the paper shows Flat vs Shifted
			}
			fmt.Printf("-- %v --\n", m.Scheme)
			hm := stats.NewHeatMap(grid.Pr, grid.Pc, m.RowReduceRecv)
			if *flagCSV {
				fmt.Print(hm.CSV())
			} else {
				fmt.Print(hm.Render())
			}
			fmt.Println()
		}
	}

	if *flagTable2 {
		fmt.Printf("== Table II: volume received during Row-Reduce (MB), grid %v ==\n", grid)
		suite := sparse.Standins(*flagSeed)
		if *flagQuick {
			suite = []*sparse.Generated{
				sparse.DG2D(10, 10, 4, *flagSeed+1),
				sparse.Grid3D(9, 9, 9, *flagSeed+2),
			}
			suite[0].Name = "DG_quick_standin"
			suite[1].Name = "FE3D_quick_standin"
		}
		for _, g := range suite {
			p, err := exp.Prepare(g, exp.DefaultRelax, exp.DefaultMaxWidth)
			check(err)
			fmt.Printf("%s\n  n=%d nnz(A)=%d nnz(L+U)=%d\n", g.Name, g.A.N, g.A.NNZ(), 2*p.An.BP.NNZScalars())
			ms, err := measure(g, p, grid, schemeList())
			check(err)
			fmt.Printf("  %-22s %10s %10s %10s %10s\n", "Communication tree", "Min", "Max", "Median", "Std.dev")
			for _, m := range ms {
				fmt.Printf("  %-22s %s\n", m.Scheme, m.RowReduceSummary().Row())
			}
			fmt.Println()
		}
	}
}

// tcpSpec is the -transport=tcp run description: the flags' plan knobs on
// grid, for the volume and the observed measurement alike.
func tcpSpec(grid *procgrid.Grid) distrun.Spec {
	spec := distrun.Spec{
		Relax:        exp.DefaultRelax,
		MaxWidth:     exp.DefaultMaxWidth,
		PR:           grid.Pr,
		PC:           grid.Pc,
		Seed:         uint64(*flagSeed),
		CoresPerNode: *flagCPN,
		Balancer:     balancerSlug(),
		TimeoutSec:   flagTimeout.Seconds(),
	}
	if *flagChaos != 0 {
		spec.ChaosEnabled, spec.ChaosSeed = true, *flagChaos
	}
	return spec
}

// measure runs the volume measurement on the substrate selected by
// -transport: the in-process goroutine-mailbox world or one OS process per
// rank over localhost TCP via distrun. Byte counters are transport-
// invariant, so the two substrates report identical volumes for the same
// matrix, grid and seed (pinned by internal/distrun's golden test).
func measure(gen *sparse.Generated, pipe *exp.Pipeline, grid *procgrid.Grid, schemes []core.Scheme) ([]*exp.VolumeMeasurement, error) {
	if *flagTransport == "tcp" {
		return distrun.MeasureVolumes(gen, tcpSpec(grid), schemes, nil)
	}
	return exp.MeasureVolumes(pipe, grid, schemes, uint64(*flagSeed), *flagTimeout,
		exp.RunOpts{Chaos: chaosCfg(), CoresPerNode: *flagCPN, Balancer: balancerChoice()})
}

// table1Paper reproduces Table I on the paper's literal 46×46 grid using
// the analytic per-rank volume model (the traffic is fully determined by
// the communication plan; the model is validated byte-for-byte against the
// engine in internal/pselinv's tests). This allows the large scaling
// stand-in, whose trees span entire 46-rank processor columns.
func table1Paper() {
	g, relax, mw := exp.ScalingAudikwStandin(1)
	pipe := exp.PrepareSymbolic(g, relax, mw)
	grid := procgrid.New(46, 46)
	fmt.Printf("== Table I (analytic) : volume sent during Col-Bcast (MB) for %s on %v ==\n",
		g.Name, grid)
	fmt.Printf("%-22s %10s %10s %10s %10s\n", "Communication tree", "Min", "Max", "Median", "Std.dev")
	for _, scheme := range core.Schemes() {
		plan := core.NewPlan(pipe.An.BP, grid, scheme, 1)
		mb := stats.BytesToMB(plan.PerRankSent(core.OpColBcast))
		fmt.Printf("%-22s %s\n", scheme, stats.Summarize(mb).Row())
	}
	fmt.Println()
}

func sharedScale(a, b []float64) (lo, hi float64) {
	sa, sb := stats.Summarize(a), stats.Summarize(b)
	lo, hi = sa.Min, sa.Max
	if sb.Min < lo {
		lo = sb.Min
	}
	if sb.Max > hi {
		hi = sb.Max
	}
	return lo, hi
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "commvol:", err)
		os.Exit(1)
	}
}
