// Supernode→process load balancers. The paper attacks load imbalance from
// the communication side (the shifted trees rotate forwarding duty); this
// file attacks the mapping side: which rank owns which supernode in the
// first place. Following symPACK's LoadBalancer hierarchy, the block-cyclic
// default is one strategy beside flop-weighted greedy bin packing, each
// producing an explicit procgrid.Map consumed by the plan builder.
//
// Every balancer assigns whole block-rows to grid rows and whole
// block-columns to grid columns (the factored form procgrid.Map enforces):
// the restricted collectives operate within processor rows and columns, so
// per-block ownership is not a degree of freedom. Balancers are pure
// functions of (pattern, grid) — the multi-process launcher re-derives the
// map independently in every worker, so any nondeterminism here would
// desynchronize the plans.
package core

import (
	"fmt"
	"sort"
	"strings"

	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
)

// Balancer selects the supernode→process mapping strategy.
type Balancer int

const (
	// CyclicBalancer is the 2D block-cyclic mapping (Figure 1 of the
	// paper): supernode k lives on grid position (k mod Pr, k mod Pc).
	// The default, and the bit-compatible baseline every other balancer
	// is checked against.
	CyclicBalancer Balancer = iota
	// WorkBalancer assigns supernodes greedily, heaviest first, to the
	// least-loaded grid row/column, weighting each supernode by its
	// estimated selected-inversion flops (TRSM + GEMM + diagonal
	// inversion).
	WorkBalancer
)

// balancerNames holds each balancer's name and slug.
var balancerNames = [...][2]string{
	CyclicBalancer: {"Cyclic", "cyclic"},
	WorkBalancer:   {"Work-Greedy", "work"},
}

// String names the balancer.
func (b Balancer) String() string {
	if b >= 0 && int(b) < len(balancerNames) {
		return balancerNames[b][0]
	}
	return fmt.Sprintf("Balancer(%d)", int(b))
}

// Slug returns the short lower-case name used on command-line flags and in
// service requests.
func (b Balancer) Slug() string {
	if b >= 0 && int(b) < len(balancerNames) {
		return balancerNames[b][1]
	}
	return fmt.Sprintf("balancer%d", int(b))
}

// AllBalancers lists every balancer constant, in declaration order. Table
// tests range over it so a new enum value cannot silently miss a switch
// arm.
func AllBalancers() []Balancer {
	return []Balancer{CyclicBalancer, WorkBalancer}
}

// BalancerSlugs lists the flag-facing names of every balancer.
func BalancerSlugs() []string {
	all := AllBalancers()
	out := make([]string, len(all))
	for i, b := range all {
		out[i] = b.Slug()
	}
	return out
}

// ParseBalancer resolves a flag or request value to a Balancer. Unknown
// names are a hard error whose message lists the valid slugs.
func ParseBalancer(name string) (Balancer, error) {
	n := strings.ToLower(strings.TrimSpace(name))
	for _, b := range AllBalancers() {
		if n == b.Slug() {
			return b, nil
		}
	}
	return 0, fmt.Errorf("unknown balancer %q (valid: %s)", name, strings.Join(BalancerSlugs(), "|"))
}

// forEachBlockLoad walks every block the second pass touches and charges
// its estimated cost to the block's (row, column) position: the diagonal
// inversion at (k, k), the L and U TRSM blocks at (i, k)/(k, i), and one
// GEMM contribution per structure pair (j, i) of each supernode. flops is
// the floating-point estimate, nnz the factor storage in scalars (GEMM
// contributions update blocks whose storage is charged by their own
// column's walk, so they carry flops only). The per-rank tallies of
// Plan.RankLoads and the balancer weights both derive from this single
// walk, so the obs load section measures exactly what the balancers
// optimize.
func forEachBlockLoad(bp *etree.BlockPattern, fn func(i, j int, flops, nnz int64)) {
	ns := bp.NumSnodes()
	for k := 0; k < ns; k++ {
		w := int64(bp.Part.Width(k))
		fn(k, k, w*w*w, w*w)
		c := bp.Struct(k)
		for _, i := range c {
			wi := int64(bp.Part.Width(i))
			fn(i, k, 2*wi*w*w, wi*w)
			fn(k, i, 2*wi*w*w, wi*w)
		}
		for _, j := range c {
			wj := int64(bp.Part.Width(j))
			for _, i := range c {
				wi := int64(bp.Part.Width(i))
				fn(j, i, 2*wj*wi*w, 0)
			}
		}
	}
}

// blockWeights accumulates forEachBlockLoad's flops into per-supernode row
// and column weights.
func blockWeights(bp *etree.BlockPattern) (rowW, colW []float64) {
	ns := bp.NumSnodes()
	rowW = make([]float64, ns)
	colW = make([]float64, ns)
	forEachBlockLoad(bp, func(i, j int, flops, _ int64) {
		rowW[i] += float64(flops)
		colW[j] += float64(flops)
	})
	return rowW, colW
}

// greedyAssign is longest-processing-time bin packing: supernodes sorted
// by weight descending (ties by index ascending, so the order — and hence
// the map — is fully deterministic) are assigned one by one to the
// currently least-loaded of nbins bins (ties to the lowest bin index).
func greedyAssign(weights []float64, nbins int) []int {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weights[order[a]] > weights[order[b]]
	})
	load := make([]float64, nbins)
	out := make([]int, len(weights))
	for _, k := range order {
		best := 0
		for b := 1; b < nbins; b++ {
			if load[b] < load[best] {
				best = b
			}
		}
		out[k] = best
		load[best] += weights[k]
	}
	return out
}

// assign produces the owner map for the pattern on the grid. The result is
// deterministic in (b, bp, grid).
func (b Balancer) assign(bp *etree.BlockPattern, grid *procgrid.Grid) *procgrid.Map {
	ns := bp.NumSnodes()
	switch b {
	case CyclicBalancer:
		return procgrid.Cyclic(grid, ns)
	case WorkBalancer:
		rowW, colW := blockWeights(bp)
		return &procgrid.Map{
			Grid:  grid,
			RowOf: greedyAssign(rowW, grid.Pr),
			ColOf: greedyAssign(colW, grid.Pc),
		}
	}
	panic(fmt.Sprintf("core: unknown balancer %d", int(b)))
}
