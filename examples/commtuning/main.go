// Communication tuning: pick the right restricted-collective scheme for a
// workload, the decision §III and §IV of the paper inform. The example
// measures real per-rank communication volumes for all tree schemes on the
// same problem, simulates their wall-clock behaviour at a larger scale,
// and prints a recommendation.
package main

import (
	"fmt"
	"log"

	"pselinv"
)

func main() {
	// A 3D FE-like problem (the audikw_1 character from the paper).
	m := pselinv.FE3D(8, 8, 8, 2, 3)
	fmt.Printf("matrix %s: n=%d nnz=%d\n\n", m.Name(), m.N(), m.NNZ())
	sys, err := pselinv.NewSystem(m, pselinv.Options{Ordering: pselinv.OrderNestedDissection})
	if err != nil {
		log.Fatal(err)
	}

	schemes := []pselinv.Scheme{
		pselinv.FlatTree, pselinv.BinaryTree, pselinv.ShiftedBinaryTree, pselinv.TopoShiftedTree,
	}

	// 1. Measured volume balance on 64 simulated ranks.
	fmt.Println("per-rank sent volume on 64 ranks (measured, MB):")
	fmt.Printf("  %-22s %10s %10s\n", "scheme", "max", "spread")
	for _, sch := range schemes {
		par, err := sys.ParallelSelInv(64, sch, 1)
		if err != nil {
			log.Fatal(err)
		}
		lo, hi := minMax(par.TotalSentMB())
		fmt.Printf("  %-22v %10.3f %10.3f\n", sch, hi, hi-lo)
	}

	// 2. Simulated times across scales (three placement seeds each).
	fmt.Println("\nsimulated wall time (s), mean of 3 placements:")
	fmt.Printf("  %-22s", "scheme")
	ps := []int{64, 256, 1024}
	for _, p := range ps {
		fmt.Printf(" %10s", fmt.Sprintf("P=%d", p))
	}
	fmt.Println()
	best := map[int]pselinv.Scheme{}
	bestT := map[int]float64{}
	for _, sch := range schemes {
		fmt.Printf("  %-22v", sch)
		for _, p := range ps {
			mean := 0.0
			for seed := uint64(1); seed <= 3; seed++ {
				mean += sys.SimulateTiming(p, sch, pselinv.SimParams{Seed: seed}).Seconds
			}
			mean /= 3
			fmt.Printf(" %10.5f", mean)
			if t, ok := bestT[p]; !ok || mean < t {
				bestT[p], best[p] = mean, sch
			}
		}
		fmt.Println()
	}

	fmt.Println("\nrecommendation:")
	for _, p := range ps {
		fmt.Printf("  P=%-5d -> %v\n", p, best[p])
	}
	fmt.Println("\n(the paper's guidance: flat trees suffice while collectives are small;" +
		"\n shifted binary trees, topology-aware or not, win at scale)")
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
