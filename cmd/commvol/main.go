// Command commvol reproduces the communication-load experiments of §IV-A on
// the paper's processor grids:
//
//	Table I   — volume sent during Col-Bcast (audikw_1 stand-in, 46×46 grid)
//	Table II  — volume received during Row-Reduce for the six-matrix suite
//	Figure 4  — Col-Bcast volume distribution histograms
//	Figure 5  — Col-Bcast volume heat maps (Flat / Binary / Shifted)
//	Figure 6  — Flat-Tree heat map on a 16×16 grid (imbalance milder at small P)
//	Figure 7  — Row-Reduce heat maps (Flat vs Shifted)
//
// Every table and figure is derived from the plan: generator → ordering →
// symbolic analysis → core.NewPlanConfig, whose per-rank byte vectors are
// summarized and drawn. Nothing is factorized and no engine runs, which is
// what lets the stand-ins reach N ~ 10⁵ on the paper's 2,116 ranks. That the
// engine moves exactly those bytes, per rank and per class, in every mode and
// on both transports, is proved where the engine does run: internal/pselinv's
// TestMeasuredVolumesMatchPlanExactly and internal/distrun's cross-backend
// goldens. Matrices are generated stand-ins, so volumes are smaller than the
// paper's in proportion; the comparisons between schemes are the reproduced
// result.
//
// -obs is the one experiment here that runs the engine: the -quick problem
// with the communication substrate instrumented, in process through the
// library's System.ParallelSelInvObserved (so on the most square grid of
// -pr×-pc ranks) or, with -transport=tcp, as one OS process per rank,
// optionally under the chaos adversary (-chaos-seed).
//
// Usage:
//
//	commvol -table1 -table2 -fig4 -fig5 -fig6 -fig7   # or -all
//	commvol -all -quick                               # smaller grid & matrices
//	commvol -obs -quick -pr 4                         # observed engine run, P=16
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pselinv"
	"pselinv/internal/core"
	"pselinv/internal/distrun"
	"pselinv/internal/exp"
	"pselinv/internal/obs"
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
	flagAll      = flag.Bool("all", false, "run every table and figure")
	flagQuick    = flag.Bool("quick", false, "smaller grid and matrices (a second instead of a minute)")
	flagSeed     = flag.Int64("seed", 1, "matrix and shift seed")
	flagCSV      = flag.Bool("csv", false, "emit heat maps as CSV instead of ASCII")
	flagPr       = flag.Int("pr", 46, "main grid rows (Pr; columns default to the same)")
	flagPc       = flag.Int("pc", 0, "main grid columns (0 = -pr, i.e. square; rectangular grids like -pr 4 -pc 2 give P=8 distributed runs)")
	flagObs      = flag.Bool("obs", false, "run the engine on the -quick problem with the communication substrate instrumented: JSON reports, merged Chrome traces, and measured forwarding chains per scheme. With -transport=tcp each rank is a real OS process: the per-rank snapshots are streamed back, clock-aligned onto rank 0 and merged into one report whose matrices are conservation-checked against the workers' counters")
	flagObsOut   = flag.String("obs-out", "obs-out", "directory for -obs artifacts")
	flagSchemes  = flag.String("schemes", "", "comma-separated tree schemes (empty = the paper's flat,binary,shifted; valid: "+strings.Join(core.SchemeSlugs(), "|")+")")
	flagBalancer = flag.String("balancer", "cyclic", "supernode→process balancer: "+strings.Join(core.BalancerSlugs(), "|"))
	flagCPN      = flag.Int("cores-per-node", 0, "ranks per node consumed by toposhifted (0 = Edison default 24)")

	flagTransport = flag.String("transport", "inproc", "communication substrate of the -obs run: inproc (goroutine mailboxes, one process) or tcp (one OS process per rank on localhost)")
	flagChaos     = flag.Uint64("chaos-seed", 0, "non-zero: the -obs run executes under the seeded chaos adversary (adversarial message reordering; volumes and numerics unchanged)")
	flagTimeout   = flag.Duration("timeout", 20*time.Minute, "engine deadline of each -obs run; on expiry the error includes a snapshot of where every rank was blocked")
)

func main() {
	distrun.MaybeWorker() // re-exec hook: with -transport=tcp this binary is its own worker
	flag.Parse()
	if *flagAll {
		*flagTable1, *flagTable2 = true, true
		*flagFig4, *flagFig5, *flagFig6, *flagFig7 = true, true, true, true
	}
	if !(*flagTable1 || *flagTable2 || *flagFig4 || *flagFig5 || *flagFig6 || *flagFig7 || *flagObs) {
		flag.Usage()
		os.Exit(2)
	}
	// Bad flag values are usage errors, naming the valid set.
	schemes := core.Schemes()
	if *flagSchemes != "" {
		schemes = schemes[:0]
		for _, name := range strings.Split(*flagSchemes, ",") {
			s, err := core.ParseScheme(name)
			usage(err)
			schemes = append(schemes, s)
		}
	}
	balancer, err := core.ParseBalancer(*flagBalancer)
	usage(err)
	if *flagCPN < 0 {
		usage(fmt.Errorf("-cores-per-node %d is negative (0 = Edison default 24)", *flagCPN))
	}
	if *flagTransport != "inproc" && *flagTransport != "tcp" {
		usage(fmt.Errorf("unknown -transport %q (want inproc or tcp)", *flagTransport))
	}
	if *flagPr < 1 {
		usage(fmt.Errorf("-pr %d: the grid needs at least one row", *flagPr))
	}
	if *flagPc < 0 {
		usage(fmt.Errorf("-pc %d is negative (0 = -pr, a square grid)", *flagPc))
	}
	if pr, pc := *flagPr, cmp.Or(*flagPc, *flagPr); *flagObs && *flagTransport == "inproc" {
		// The library's observed run takes a rank count and lays it out on
		// the most square grid.
		if g := procgrid.Squarish(pr * pc); g.Pr != pr || g.Pc != pc {
			usage(fmt.Errorf("in process, -obs runs P=%d ranks on the most square grid, %v, not -pr %d -pc %d: pass that shape, or -transport=tcp", pr*pc, g, pr, pc))
		}
	}
	if err := run(os.Stdout, schemes, balancer); err != nil {
		fmt.Fprintln(os.Stderr, "commvol:", err)
		os.Exit(1)
	}
}

func usage(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "commvol: %v\n", err)
		os.Exit(2)
	}
}

// run prints the selected experiments to w.
func run(w io.Writer, schemes []core.Scheme, balancer core.Balancer) error {
	// The paper's grids: 46×46 for audikw_1, 16×16 for Figure 6's "small P".
	grid, smallGrid := procgrid.New(*flagPr, cmp.Or(*flagPc, *flagPr)), procgrid.New(16, 16)
	if *flagQuick {
		// An explicit -pr/-pc wins over -quick's default grid shrink (so
		// `-obs -quick -pr 2 -transport=tcp` runs P=4 real processes on the
		// quick matrix); -quick alone shrinks both.
		gridSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "pr" || f.Name == "pc" {
				gridSet = true
			}
		})
		if !gridSet {
			grid = procgrid.New(12, 12)
		}
		smallGrid = procgrid.New(6, 6)
	}
	if *flagObs {
		if err := runObs(w, grid, schemes, balancer); err != nil {
			return err
		}
	}
	cfg := core.PlanConfig{Seed: uint64(*flagSeed), Balancer: balancer, Topo: core.Topology{CoresPerNode: *flagCPN}}

	needMain := *flagTable1 || *flagFig4 || *flagFig5 || *flagFig7
	var audikw *sparse.Generated
	var pipe *exp.Pipeline
	var mainMs []*exp.VolumeMeasurement
	if needMain || *flagFig6 {
		audikw = audikwStandin()
		pipe = exp.PrepareSymbolic(audikw, exp.DefaultRelax, exp.DefaultMaxWidth)
		fmt.Fprintf(w, "# matrix %s: n=%d nnz(A)=%d nnz(L+U)=%d supernodes=%d grid=%v\n\n",
			audikw.Name, audikw.A.N, audikw.A.NNZ(), 2*pipe.An.BP.NNZScalars(), pipe.An.BP.NumSnodes(), grid)
		if needMain {
			mainMs = exp.PlanVolumes(pipe, grid, schemes, cfg)
		}
		if *flagTable1 {
			fmt.Fprintf(w, "== Table I: volume sent during Col-Bcast (MB) for %s on %v ==\n", audikw.Name, grid)
			fmt.Fprintf(w, "%-22s %10s %10s %10s %10s\n", "Communication tree", "Min", "Max", "Median", "Std.dev")
			for _, m := range mainMs {
				fmt.Fprintf(w, "%-22s %s\n", m.Scheme, m.ColBcastSummary().Row())
			}
			fmt.Fprintln(w)
		}
		if *flagFig4 {
			fmt.Fprintln(w, "== Figure 4: Col-Bcast volume distribution (MB vs #ranks) ==")
			for _, m := range mainMs {
				fmt.Fprintf(w, "-- %v --\n%s\n", m.Scheme, stats.NewHistogram(m.ColBcastSent, 12).Render(50))
			}
		}
		if *flagFig5 {
			printFig5(w, grid, mainMs)
		}
		if *flagFig6 {
			small := exp.PlanVolumes(pipe, smallGrid, []core.Scheme{core.FlatTree}, cfg)[0]
			printFig6(w, smallGrid, small, grid, mainMs)
		}
		if *flagFig7 {
			fmt.Fprintln(w, "== Figure 7: Row-Reduce received-volume heat maps ==")
			for _, m := range mainMs {
				if m.Scheme == core.BinaryTree {
					continue // the paper shows Flat vs Shifted
				}
				fmt.Fprintf(w, "-- %v --\n%s\n", m.Scheme, heatMap(grid, m.RowReduceRecv, stats.Summarize(m.RowReduceRecv)))
			}
		}
	}

	if *flagTable2 {
		fmt.Fprintf(w, "== Table II: volume received during Row-Reduce (MB), grid %v ==\n", grid)
		for _, g := range table2Suite() {
			// The suite's audikw_1 is Table I's matrix (sparse.Standins builds
			// it with AudikwStandin): its row reads the vectors already taken.
			p, ms := pipe, mainMs
			if ms == nil || g.Name != audikw.Name {
				p = exp.PrepareSymbolic(g, exp.DefaultRelax, exp.DefaultMaxWidth)
				ms = exp.PlanVolumes(p, grid, schemes, cfg)
			}
			fmt.Fprintf(w, "%s\n  n=%d nnz(A)=%d nnz(L+U)=%d\n", g.Name, g.A.N, g.A.NNZ(), 2*p.An.BP.NNZScalars())
			fmt.Fprintf(w, "  %-22s %10s %10s %10s %10s\n", "Communication tree", "Min", "Max", "Median", "Std.dev")
			for _, m := range ms {
				fmt.Fprintf(w, "  %-22s %s\n", m.Scheme, m.RowReduceSummary().Row())
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// quickNX and quickDofs size the -quick audikw stand-in: an FE3D matrix on
// a quickNX³ grid with quickDofs unknowns per node.
const quickNX, quickDofs = 7, 2

// audikwStandin is the matrix of Table I and the figures (and of -obs).
func audikwStandin() *sparse.Generated {
	if !*flagQuick {
		return sparse.AudikwStandin(*flagSeed)
	}
	g := sparse.FE3D(quickNX, quickNX, quickNX, quickDofs, *flagSeed)
	g.Name = "audikw_1_standin_quick"
	return g
}

// table2Suite is Table II's matrix suite.
func table2Suite() []*sparse.Generated {
	if !*flagQuick {
		return sparse.Standins(*flagSeed)
	}
	suite := []*sparse.Generated{
		sparse.DG2D(10, 10, 4, *flagSeed+1),
		sparse.Grid3D(9, 9, 9, *flagSeed+2),
	}
	suite[0].Name = "DG_quick_standin"
	suite[1].Name = "FE3D_quick_standin"
	return suite
}

// heatMap draws one per-rank vector on grid over scale's [Min, Max], or as
// CSV under -csv.
func heatMap(grid *procgrid.Grid, v []float64, scale stats.Summary) string {
	hm := stats.NewHeatMap(grid.Pr, grid.Pc, v)
	if *flagCSV {
		return hm.CSV()
	}
	return hm.RenderScaled(scale.Min, scale.Max)
}

// byScheme returns the measurement of scheme s, or nil when -schemes left
// it out.
func byScheme(ms []*exp.VolumeMeasurement, s core.Scheme) *exp.VolumeMeasurement {
	for _, m := range ms {
		if m.Scheme == s {
			return m
		}
	}
	return nil
}

// printFig5 draws the Col-Bcast heat maps. As in the paper, (a) Flat and
// (c) Shifted share one scale when both were asked for; every other map —
// Binary's stripes exceed that range — is drawn on its own.
func printFig5(w io.Writer, grid *procgrid.Grid, ms []*exp.VolumeMeasurement) {
	fmt.Fprintln(w, "== Figure 5: Col-Bcast volume heat maps ==")
	flat, shifted := byScheme(ms, core.FlatTree), byScheme(ms, core.ShiftedBinaryTree)
	var shared *stats.Summary
	if flat != nil && shifted != nil {
		a, b := flat.ColBcastSummary(), shifted.ColBcastSummary()
		shared = &stats.Summary{Min: min(a.Min, b.Min), Max: max(a.Max, b.Max)}
	}
	for _, m := range ms {
		scale := m.ColBcastSummary()
		if shared != nil && (m == flat || m == shifted) {
			scale = *shared
		}
		fmt.Fprintf(w, "-- %v --\n%s\n", m.Scheme, heatMap(grid, m.ColBcastSent, scale))
	}
}

// printFig6 draws the Flat-Tree map of the small grid and, when the main
// grid's Flat-Tree volumes were computed too, the paper's comparison of the
// two relative spreads.
func printFig6(w io.Writer, smallGrid *procgrid.Grid, small *exp.VolumeMeasurement, grid *procgrid.Grid, mainMs []*exp.VolumeMeasurement) {
	fmt.Fprintf(w, "== Figure 6: Col-Bcast Flat-Tree heat map on %v ==\n", smallGrid)
	s := small.ColBcastSummary()
	fmt.Fprint(w, heatMap(smallGrid, small.ColBcastSent, s))
	fmt.Fprintf(w, "mean %.3f MB, std %.3f MB (%.1f%% of mean)\n\n", s.Mean, s.Std, 100*s.Std/s.Mean)
	if flat := byScheme(mainMs, core.FlatTree); flat != nil {
		sBig := flat.ColBcastSummary()
		fmt.Fprintf(w, "compare %v: std is %.1f%% of mean (paper: 10.2%% vs 19.2%%)\n\n",
			grid, 100*sBig.Std/sBig.Mean)
	}
}

// runObs is the observed engine run: once per scheme on the -quick audikw
// stand-in, in process through the library's observed run or as one OS
// process per rank. What comes back is the same merged record either way.
func runObs(w io.Writer, grid *procgrid.Grid, schemes []core.Scheme, balancer core.Balancer) error {
	if !*flagQuick {
		return fmt.Errorf("-obs runs the engine, which factorizes numerically and starts one rank per grid cell: it needs -quick (e.g. -obs -quick -pr 4)")
	}
	tcp := *flagTransport == "tcp"
	if tcp && grid.Size() > 64 {
		return fmt.Errorf("-transport=tcp would spawn %d OS processes; use a smaller grid (e.g. -quick -pr 2 for P=4)", grid.Size())
	}
	if *flagChaos != 0 {
		fmt.Fprintf(w, "chaos adversary active (seed %d): message delivery adversarially reordered\n", *flagChaos)
	}
	// report prints one scheme's run and writes its two artifacts.
	var paths []string
	report := func(scheme core.Scheme, summary, colBcast string, write func(dir string) ([]string, error)) error {
		fmt.Fprintf(w, "-- %v --\n%s\n", scheme, summary)
		// The measured Col-Bcast traffic matrix is the per-link version
		// of the Figure 5 per-rank heat maps (embedded up to 64 ranks).
		if colBcast != "" {
			fmt.Fprint(w, colBcast)
			fmt.Fprintln(w)
		}
		if tcp {
			fmt.Fprintln(w, "conservation: merged traffic-matrix marginals equal the workers' volume counters")
		}
		written, err := write(*flagObsOut)
		paths = append(paths, written...)
		return err
	}
	if tcp {
		fmt.Fprintf(w, "== Observability: distributed runs on %v, one OS process per rank (merged reports + offset-corrected traces in %s) ==\n", grid, *flagObsOut)
		runs, err := distrun.MeasureObs(audikwStandin(), distrun.Spec{
			Relax:        exp.DefaultRelax,
			MaxWidth:     exp.DefaultMaxWidth,
			PR:           grid.Pr,
			PC:           grid.Pc,
			Seed:         uint64(*flagSeed),
			CoresPerNode: *flagCPN,
			Balancer:     balancer.Slug(),
			TimeoutSec:   flagTimeout.Seconds(),
			ChaosSeed:    *flagChaos,
		}, schemes, nil)
		if err != nil {
			return err
		}
		for i, m := range runs {
			rep := m.Report(schemes[i].String())
			if err := report(schemes[i], rep.Summary(), rep.RenderMatrix("Col-Bcast"), func(dir string) ([]string, error) {
				return obs.WriteArtifacts(dir, rep, m.Spans)
			}); err != nil {
				return err
			}
		}
	} else {
		fmt.Fprintf(w, "== Observability: instrumented runs on %v (reports + merged traces in %s) ==\n", grid, *flagObsOut)
		sys, err := pselinv.NewSystem(pselinv.FE3D(quickNX, quickNX, quickNX, quickDofs, *flagSeed), pselinv.Options{
			Ordering:     pselinv.OrderNestedDissection,
			Relax:        exp.DefaultRelax,
			MaxWidth:     exp.DefaultMaxWidth,
			Timeout:      *flagTimeout,
			ChaosSeed:    *flagChaos,
			CoresPerNode: *flagCPN,
			Balancer:     balancer.Slug(),
		})
		if err != nil {
			return err
		}
		defer sys.Release()
		for _, scheme := range schemes {
			res, trace, rep, err := sys.ParallelSelInvObserved(grid.Size(), scheme, uint64(*flagSeed))
			if err != nil {
				return fmt.Errorf("obs %v on %v: %w", scheme, grid, err)
			}
			res.Release()
			if err := report(scheme, rep.Summary(), rep.RenderMatrix("Col-Bcast"), func(dir string) ([]string, error) {
				return rep.WriteArtifacts(dir, trace)
			}); err != nil {
				return err
			}
		}
	}
	fmt.Fprintln(w, "artifacts:")
	for _, p := range paths {
		fmt.Fprintln(w, "  "+p)
	}
	fmt.Fprintln(w)
	return nil
}
