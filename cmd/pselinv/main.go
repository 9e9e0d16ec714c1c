// Command pselinv runs the full selected-inversion pipeline end to end on a
// generated (or MatrixMarket) matrix: ordering, symbolic analysis, block LU
// factorization, then sequential and/or distributed selected inversion,
// reporting timings, communication volumes and (optionally) a verification
// of the parallel result against the sequential one.
//
// Examples:
//
//	pselinv -matrix grid3d -nx 8 -ny 8 -nz 8 -procs 16 -scheme shifted -verify
//	pselinv -matrix dg2d -nx 12 -ny 12 -dofs 6 -procs 64 -scheme flat
//	pselinv -mm matrix.mtx -procs 36
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pselinv"
	"pselinv/internal/dense"
	"pselinv/internal/ordering"
)

var (
	flagMatrix   = flag.String("matrix", "grid2d", "generator: "+generatorKinds())
	flagMM       = flag.String("mm", "", "read a MatrixMarket file instead of generating")
	flagNX       = flag.Int("nx", 12, "grid extent x")
	flagNY       = flag.Int("ny", 12, "grid extent y")
	flagNZ       = flag.Int("nz", 4, "grid extent z (3d generators)")
	flagDofs     = flag.Int("dofs", 4, "unknowns per node/element (dg2d, fe3d)")
	flagN        = flag.Int("n", 1000, "dimension (banded, random)")
	flagSeed     = flag.Int64("seed", 1, "generator seed")
	flagProcs    = flag.Int("procs", 16, "simulated MPI ranks")
	flagScheme   = flag.String("scheme", "shifted", "tree scheme: "+strings.Join(pselinv.SchemeSlugs(), "|"))
	flagBalancer = flag.String("balancer", "cyclic", "supernode→process balancer: "+strings.Join(pselinv.BalancerSlugs(), "|"))
	flagCPN      = flag.Int("cores-per-node", 0, "ranks per node for toposhifted (0 = Edison default 24)")
	flagOrder    = flag.String("order", "nd", "ordering: natural|rcm|nd|mmd")
	flagVerify   = flag.Bool("verify", false, "compare the parallel inverse against the sequential one")
	flagSim      = flag.Bool("sim", false, "also run the network timing simulator at this processor count")
	flagAsym     = flag.Bool("asym", false, "perturb the generated matrix to asymmetric values (general path)")
	flagTrace    = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the parallel run to this file")
	flagObs      = flag.Bool("obs", false, "instrument the parallel run's communication substrate: print the telemetry summary (traffic totals, imbalance, measured forwarding chains, straggler attribution) and write the JSON report + merged Chrome trace to -obs-out")
	flagObsOut   = flag.String("obs-out", "obs-out", "directory for -obs artifacts")
	flagDag      = flag.Bool("dag", false, "intra-rank task-DAG execution: schedule supernode updates on the task-DAG offload slots (-workers), overlapped with the tree collectives (result stays byte-identical)")
	flagWork     = flag.Int("workers", 0, "task-DAG offload slots for -dag, plus one (0 = GOMAXPROCS); dense kernels always run on the calling rank")
)

func scheme(name string) pselinv.Scheme {
	s, err := pselinv.ParseScheme(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pselinv: %v\n", err)
		os.Exit(2)
	}
	return s
}

func balancer(name string) string {
	if _, err := pselinv.ParseBalancer(name); err != nil {
		fmt.Fprintf(os.Stderr, "pselinv: %v\n", err)
		os.Exit(2)
	}
	return name
}

func orderMethod(name string) pselinv.OrderingMethod {
	m, err := ordering.Parse(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pselinv: %v\n", err)
		os.Exit(2)
	}
	return m
}

// generators are the -matrix kinds: each name is parsed, listed in the
// flag's help and in its error, from here only.
var generators = []struct {
	kind string
	gen  func() *pselinv.Matrix
}{
	{"grid2d", func() *pselinv.Matrix { return pselinv.Grid2D(*flagNX, *flagNY, *flagSeed) }},
	{"grid3d", func() *pselinv.Matrix { return pselinv.Grid3D(*flagNX, *flagNY, *flagNZ, *flagSeed) }},
	{"dg2d", func() *pselinv.Matrix { return pselinv.DG2D(*flagNX, *flagNY, *flagDofs, *flagSeed) }},
	{"fe3d", func() *pselinv.Matrix { return pselinv.FE3D(*flagNX, *flagNY, *flagNZ, *flagDofs, *flagSeed) }},
	{"banded", func() *pselinv.Matrix { return pselinv.Banded(*flagN, 4, *flagSeed) }},
	{"random", func() *pselinv.Matrix { return pselinv.RandomSym(*flagN, 6, *flagSeed) }},
}

func generatorKinds() string {
	kinds := make([]string, len(generators))
	for i, g := range generators {
		kinds[i] = g.kind
	}
	return strings.Join(kinds, "|")
}

func buildMatrix() *pselinv.Matrix {
	if *flagMM != "" {
		f, err := os.Open(*flagMM)
		check(err)
		defer f.Close()
		m, err := pselinv.FromMatrixMarket(f, *flagMM)
		check(err)
		return m
	}
	for _, g := range generators {
		if strings.EqualFold(g.kind, *flagMatrix) {
			return g.gen()
		}
	}
	fmt.Fprintf(os.Stderr, "pselinv: unknown matrix kind %q (valid: %s)\n", *flagMatrix, generatorKinds())
	os.Exit(2)
	return nil
}

func main() {
	flag.Parse()
	if *flagCPN < 0 {
		fmt.Fprintf(os.Stderr, "pselinv: -cores-per-node %d is negative (0 = Edison default 24)\n", *flagCPN)
		os.Exit(2)
	}
	if *flagProcs < 1 {
		fmt.Fprintf(os.Stderr, "pselinv: -procs %d: need at least 1 rank\n", *flagProcs)
		os.Exit(2)
	}
	for _, name := range []string{"nx", "ny", "nz", "dofs", "n"} {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			fmt.Fprintf(os.Stderr, "pselinv: -%s %d is negative\n", name, v)
			os.Exit(2)
		}
	}
	m := buildMatrix()
	if *flagAsym {
		m.Asymmetrize(*flagSeed+99, 0.6)
	}
	fmt.Printf("matrix %s: n=%d nnz=%d\n", m.Name(), m.N(), m.NNZ())

	if *flagDag || *flagWork > 0 {
		fmt.Printf("dense kernel workers: %d\n", dense.SetWorkers(*flagWork))
	}

	t0 := time.Now()
	sys, err := pselinv.NewSystem(m, pselinv.Options{
		Ordering: orderMethod(*flagOrder), DAG: *flagDag, CoresPerNode: *flagCPN,
		Balancer: balancer(*flagBalancer),
	})
	check(err)
	path := "symmetric"
	if !sys.Symmetric() {
		path = "general (asymmetric values)"
	}
	fmt.Printf("analysis+factorization: %v (%d supernodes, nnz(L)=%d, %s path)\n",
		time.Since(t0).Round(time.Millisecond), sys.NumSupernodes(), sys.FactorNNZ(), path)

	t1 := time.Now()
	seq, err := sys.SelInv()
	check(err)
	fmt.Printf("sequential SelInv: %v\n", time.Since(t1).Round(time.Millisecond))

	sch := scheme(*flagScheme)
	var par *pselinv.ParallelResult
	if *flagObs || *flagTrace != "" {
		// -trace alone is an observed run that keeps only the timeline.
		var trep *pselinv.TraceReport
		var orep *pselinv.ObsReport
		par, trep, orep, err = sys.ParallelSelInvObserved(*flagProcs, sch, uint64(*flagSeed))
		check(err)
		if *flagObs {
			fmt.Printf("%s", orep.Summary())
			paths, werr := orep.WriteArtifacts(*flagObsOut, trep)
			check(werr)
			fmt.Printf("obs artifacts:\n  %s\n", strings.Join(paths, "\n  "))
		} else {
			fmt.Printf("%s", trep.Summary())
		}
		if *flagTrace != "" {
			f, ferr := os.Create(*flagTrace)
			check(ferr)
			check(trep.WriteChromeTrace(f))
			check(f.Close())
			fmt.Printf("trace written to %s (open in chrome://tracing)\n", *flagTrace)
		}
	} else {
		par, err = sys.ParallelSelInv(*flagProcs, sch, uint64(*flagSeed))
		check(err)
	}
	pr, pc := par.GridDims()
	fmt.Printf("parallel PSelInv (%d ranks, %dx%d grid, %v): %v wall\n",
		par.Procs(), pr, pc, sch, par.Elapsed.Round(time.Millisecond))
	cb := par.ColBcastSentMB()
	maxCB := 0.0
	for _, v := range cb {
		if v > maxCB {
			maxCB = v
		}
	}
	fmt.Printf("communication: max total sent %.3f MB/rank, max Col-Bcast sent %.3f MB/rank\n",
		par.MaxSentMB(), maxCB)
	if ds := par.DagStats(); len(ds) > 0 {
		tasks, offloaded, maxWidth, occ := 0, 0, 0, 0.0
		for _, s := range ds {
			tasks += s.Tasks
			offloaded += s.Offloaded
			if s.MaxWidth > maxWidth {
				maxWidth = s.MaxWidth
			}
			occ += s.Occupancy
		}
		fmt.Printf("task DAG: %d tasks (%d offloaded to pool workers), peak width %d, mean occupancy %.2f\n",
			tasks, offloaded, maxWidth, occ/float64(len(ds)))
	}

	if *flagVerify {
		worst := 0.0
		n := m.N()
		for i := 0; i < n; i++ {
			sv, ok1 := seq.Entry(i, i)
			pv, ok2 := par.Entry(i, i)
			if !ok1 || !ok2 {
				fmt.Fprintf(os.Stderr, "pselinv: diagonal entry %d missing\n", i)
				os.Exit(1)
			}
			if d := sv - pv; d > worst {
				worst = d
			} else if -d > worst {
				worst = -d
			}
		}
		fmt.Printf("verify: max |diag(seq) - diag(par)| = %.3g\n", worst)
		if worst > 1e-9 {
			fmt.Fprintln(os.Stderr, "pselinv: VERIFICATION FAILED")
			os.Exit(1)
		}
		fmt.Println("verify: PASS")
	}

	if *flagSim {
		tr := sys.SimulateTiming(*flagProcs, sch, pselinv.SimParams{
			Seed: uint64(*flagSeed), CoresPerNode: *flagCPN,
		})
		fmt.Printf("simulated timing at P=%d: %.4fs (compute %.4fs, comm %.4fs, %d msgs, %.1f MB)\n",
			*flagProcs, tr.Seconds, tr.ComputeSeconds, tr.CommSeconds,
			tr.Messages, float64(tr.Bytes)/1e6)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pselinv:", err)
		os.Exit(1)
	}
}
