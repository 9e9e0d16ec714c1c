// Command matgen generates the synthetic test matrices of this repository
// (including the paper-matrix stand-ins) and reports their structural
// statistics, optionally writing MatrixMarket files for external use.
//
// Examples:
//
//	matgen -list
//	matgen -standins
//	matgen -matrix fe3d -nx 10 -ny 10 -nz 10 -dofs 3 -out audikw_like.mtx
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pselinv/internal/etree"
	"pselinv/internal/ordering"
	"pselinv/internal/sparse"
)

var (
	flagList     = flag.Bool("list", false, "list available generators")
	flagStandins = flag.Bool("standins", false, "describe the paper-matrix stand-in suite")
	flagMatrix   = flag.String("matrix", "", "generator: grid2d|grid3d|dg2d|dg2dr|fe3d|banded|random")
	flagNX       = flag.Int("nx", 10, "grid extent x")
	flagNY       = flag.Int("ny", 10, "grid extent y")
	flagNZ       = flag.Int("nz", 10, "grid extent z")
	flagDofs     = flag.Int("dofs", 3, "unknowns per node/element")
	flagRadius   = flag.Int("radius", 2, "coupling radius (dg2dr)")
	flagN        = flag.Int("n", 1000, "dimension (banded, random)")
	flagSeed     = flag.Int64("seed", 1, "generator seed")
	flagOut      = flag.String("out", "", "write MatrixMarket to this file")
	flagAnalyze  = flag.Bool("analyze", false, "run symbolic analysis and report supernode statistics")
)

func main() {
	flag.Parse()
	for _, name := range []string{"nx", "ny", "nz", "dofs", "n"} {
		if v := flag.Lookup(name).Value.(flag.Getter).Get().(int); v < 0 {
			fmt.Fprintf(os.Stderr, "matgen: -%s %d is negative\n", name, v)
			os.Exit(2)
		}
	}
	switch {
	case *flagList:
		fmt.Println(`generators:
  grid2d   nx ny            5-point Laplacian
  grid3d   nx ny nz         7-point Laplacian
  dg2d     nx ny dofs       DG-like: dense dofs-blocks, 8-neighbor coupling
  dg2dr    nx ny dofs r     DG-like with coupling radius r (denser)
  fe3d     nx ny nz dofs    3D FE-like: dofs per node, 27-point coupling
  banded   n                symmetric band
  random   n                random structurally symmetric`)
	case *flagStandins:
		fmt.Println("paper matrix -> stand-in (see EXPERIMENTS.md for the scale mapping):")
		for _, g := range sparse.Standins(*flagSeed) {
			describe(g, *flagAnalyze)
		}
	case *flagMatrix != "":
		g := build()
		describe(g, *flagAnalyze)
		if *flagOut != "" {
			f, err := os.Create(*flagOut)
			check(err)
			check(sparse.WriteMatrixMarket(f, g.A))
			check(f.Close())
			fmt.Printf("wrote %s\n", *flagOut)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func build() *sparse.Generated {
	switch strings.ToLower(*flagMatrix) {
	case "grid2d":
		return sparse.Grid2D(*flagNX, *flagNY, *flagSeed)
	case "grid3d":
		return sparse.Grid3D(*flagNX, *flagNY, *flagNZ, *flagSeed)
	case "dg2d":
		return sparse.DG2D(*flagNX, *flagNY, *flagDofs, *flagSeed)
	case "dg2dr":
		return sparse.DG2DRadius(*flagNX, *flagNY, *flagDofs, *flagRadius, *flagSeed)
	case "fe3d":
		return sparse.FE3D(*flagNX, *flagNY, *flagNZ, *flagDofs, *flagSeed)
	case "banded":
		return sparse.Banded(*flagN, 4, *flagSeed)
	case "random":
		return sparse.RandomSym(*flagN, 6, *flagSeed)
	}
	fmt.Fprintf(os.Stderr, "matgen: unknown generator %q\n", *flagMatrix)
	os.Exit(2)
	return nil
}

func describe(g *sparse.Generated, analyze bool) {
	fmt.Printf("%-28s n=%-7d nnz=%-9d density=%.3g%%\n",
		g.Name, g.A.N, g.A.NNZ(), 100*g.A.Density())
	if !analyze {
		return
	}
	if g.A.N == 0 {
		check(fmt.Errorf("%s: empty matrix", g.Name))
	}
	perm := ordering.Compute(ordering.NestedDissection, g.A, g.Geom)
	an := etree.AnalyzeOrder(g.A, perm, etree.Options{Relax: 4, MaxWidth: 32})
	var cs []int
	for k := 0; k < an.BP.NumSnodes(); k++ {
		cs = append(cs, len(an.BP.Struct(k)))
	}
	sort.Ints(cs)
	fmt.Printf("  supernodes=%d nnz(L)=%d |C| median=%d p90=%d max=%d\n",
		an.BP.NumSnodes(), an.BP.NNZScalars(), cs[len(cs)/2], cs[9*len(cs)/10], cs[len(cs)-1])
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "matgen:", err)
		os.Exit(1)
	}
}
