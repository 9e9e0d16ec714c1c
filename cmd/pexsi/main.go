// Command pexsi runs the pole-expansion workload that motivates PSelInv
// (§I of the paper): estimate diag f(H) for the Fermi–Dirac function by
// repeated selected inversion of complex-shifted systems, one per Matsubara
// pole, reporting the truncated Fermi density.
//
// Each pole runs on the distributed engine (-procs ranks per pole; -procs 1
// uses the serial kernel). By default all poles run at once, one processor
// group each; -batch instead shares one engine template across all poles
// and pipelines factorization with inversion. Both honor -scheme, -balancer
// and -dag, and print the path that inverted the poles: serial, or the
// engine's symmetric or general plan as the Hamiltonian's values select (a
// diagonal shift keeps their symmetry).
//
// Examples:
//
//	pexsi -nx 10 -ny 10 -beta 2 -mu 50 -poles 32 -procs 4
//	pexsi -batch -poles 32 -balancer work -dag
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pselinv/internal/core"
	"pselinv/internal/pexsi"
	"pselinv/internal/sparse"
)

var (
	flagNX       = flag.Int("nx", 10, "grid extent x")
	flagNY       = flag.Int("ny", 10, "grid extent y")
	flagDofs     = flag.Int("dofs", 1, "unknowns per element (>1 uses the DG generator)")
	flagSeed     = flag.Int64("seed", 1, "generator seed")
	flagPoles    = flag.Int("poles", 16, "number of poles")
	flagBeta     = flag.Float64("beta", 2.0, "inverse temperature")
	flagMu       = flag.Float64("mu", 50.0, "chemical potential")
	flagProcs    = flag.Int("procs", 16, "simulated ranks per pole (1 = serial kernel)")
	flagScheme   = flag.String("scheme", "shifted", "tree scheme: "+strings.Join(core.SchemeSlugs(), "|"))
	flagBalancer = flag.String("balancer", "cyclic", "supernode→process balancer: "+strings.Join(core.BalancerSlugs(), "|"))
	flagDAG      = flag.Bool("dag", false, "intra-rank task-DAG execution")
	flagBatch    = flag.Bool("batch", false, "batch engine (one shared template, pipelined factorization)")
)

func main() {
	flag.Parse()
	if *flagProcs < 1 {
		usage(fmt.Errorf("-procs %d: need at least 1 rank", *flagProcs))
	}
	for _, name := range []string{"nx", "ny", "dofs"} {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			usage(fmt.Errorf("-%s %d is negative", name, v))
		}
	}
	scheme, err := core.ParseScheme(*flagScheme)
	usage(err)
	balancer, err := core.ParseBalancer(*flagBalancer)
	usage(err)
	var h *sparse.Generated
	if *flagDofs > 1 {
		h = sparse.DG2D(*flagNX, *flagNY, *flagDofs, *flagSeed)
	} else {
		h = sparse.Grid2D(*flagNX, *flagNY, *flagSeed)
	}
	fmt.Printf("Hamiltonian %s: n=%d nnz=%d\n", h.Name, h.A.N, h.A.NNZ())

	poles, err := pexsi.MatsubaraPoles(*flagPoles, *flagBeta, *flagMu)
	check(err)

	if *flagBatch {
		res, err := pexsi.RunBatch(h, pexsi.BatchConfig{
			Poles: poles, Relax: 4, MaxWidth: 48,
			Procs: *flagProcs, Scheme: scheme, Balancer: balancer, DAG: *flagDAG,
			Seed: uint64(*flagSeed),
		})
		check(err)
		lo, hi, tr := summarize(res.Density)
		fmt.Printf("complex Matsubara batch: %d poles × %d ranks (%s path), %v\n",
			len(poles), *flagProcs, res.Path, res.Elapsed.Round(1e6))
		fmt.Printf("density diag: min %.4f max %.4f, electron count (trace) %.3f of %d states\n",
			lo, hi, tr, h.A.N)
		for l, st := range res.Stats {
			fmt.Printf("  pole %2d: factor %v + invert %v, %.1f MB allocated\n",
				l, st.FactorElapsed.Round(1e6), st.InvertElapsed.Round(1e6),
				float64(st.AllocBytes)/1e6)
		}
		return
	}
	res, err := pexsi.RunComplex(h, pexsi.ComplexConfig{
		Poles: poles, Relax: 4, MaxWidth: 48, Parallel: true,
		Procs: *flagProcs, Scheme: scheme, Balancer: balancer, DAG: *flagDAG,
		Seed: uint64(*flagSeed),
	})
	check(err)
	lo, hi, tr := summarize(res.Density)
	fmt.Printf("complex Matsubara expansion: %d poles × %d ranks (%s path), %v\n",
		len(poles), *flagProcs, res.Path, res.Elapsed.Round(1e6))
	fmt.Printf("density diag: min %.4f max %.4f, electron count (trace) %.3f of %d states\n",
		lo, hi, tr, h.A.N)
	fmt.Printf("log|det(H - z_0)| = %.4f\n", real(res.LogDets[0]))
}

func summarize(xs []float64) (lo, hi, sum float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
		sum += x
	}
	return lo, hi, sum
}

func usage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pexsi:", err)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pexsi:", err)
		os.Exit(1)
	}
}
