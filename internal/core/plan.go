package core

import (
	"fmt"

	"pselinv/internal/etree"
	"pselinv/internal/procgrid"
)

// OpKind identifies one of the communication operations of the PSelInv
// second loop (the events labelled a, b, c around Figure 2 of the paper,
// plus the pass-1 diagonal broadcast and the symmetric mirror sends).
type OpKind int

const (
	// OpDiagBcast broadcasts the diagonal factor of supernode K — on a
	// symmetric plan its lower triangle, L_KK and D_K — within the processor
	// column owning block column K (pass 1).
	OpDiagBcast OpKind = iota
	// OpCrossSend sends L̂_{I,K} from the owner of block (I,K) to the owner
	// of block (K,I), where it becomes Û_{K,I} = L̂_{I,K}ᵀ.
	OpCrossSend
	// OpColBcast broadcasts Û_{K,I} within the processor column owning
	// block column I — the paper's Col-Bcast.
	OpColBcast
	// OpRowReduce reduces the partial products A⁻¹_{J,I}·L̂_{I,K} within the
	// processor row owning block row J onto the owner of (J,K) — the
	// paper's Row-Reduce.
	OpRowReduce
	// OpDiagReduce reduces L̂_{J,K}ᵀ·A⁻¹_{J,K} contributions within the
	// processor column owning block column K onto the owner of (K,K) — on a
	// symmetric plan their lower triangles, the sum being symmetric.
	OpDiagReduce
	// OpSymmSend sends the finalized A⁻¹_{J,K} to the owner of (K,J) for
	// the upper-triangle mirror (symmetric path only).
	OpSymmSend

	// The remaining kinds belong to the general (asymmetric-value) path —
	// the extension §V of the paper names as work in progress. With
	// asymmetric values Û_{K,I} ≠ L̂_{I,K}ᵀ, so the upper block row of each
	// supernode requires its own broadcast/reduction pattern mirroring the
	// lower one.

	// OpDiagBcastRow broadcasts the packed diagonal factor of supernode K
	// within the processor row owning block row K (pass 1, for Û).
	OpDiagBcastRow
	// OpCrossSendU sends Û_{K,I} from the owner of block (K,I) to the
	// owner of block (I,K), the root of the row broadcast.
	OpCrossSendU
	// OpRowBcast broadcasts Û_{K,I} within the processor row owning block
	// row I to every rank holding a block A⁻¹_{I,J}, J ∈ C.
	OpRowBcast
	// OpColReduce reduces the partial products Û_{K,I}·A⁻¹_{I,J} within
	// the processor column owning block column J onto the owner of (K,J).
	OpColReduce
)

// opKindNames is indexed by OpKind.
var opKindNames = [...]string{"DiagBcast", "CrossSend", "ColBcast", "RowReduce", "DiagReduce",
	"SymmSend", "DiagBcastRow", "CrossSendU", "RowBcast", "ColReduce"}

// String names the op kind.
func (k OpKind) String() string {
	if k >= 0 && int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// OpKey identifies a collective or point operation uniquely within a run;
// it doubles as the message tag and as the shift-derivation key for
// ShiftedBinaryTree.
func OpKey(kind OpKind, k, blk int) uint64 {
	return uint64(kind)<<48 | uint64(uint32(k))<<24 | uint64(uint32(blk))&0xffffff
}

// DecodeOpKey inverts OpKey: it recovers the operation kind, supernode and
// block from a message tag. The engine's hung-run report uses it to annotate
// in-flight messages with the collective they belong to.
func DecodeOpKey(tag uint64) (kind OpKind, k, blk int) {
	return OpKind(tag >> 48), int((tag >> 24) & 0xffffff), int(tag & 0xffffff)
}

// CollOp is a restricted collective (broadcast or reduction) over a tree.
type CollOp struct {
	Kind  OpKind
	K     int   // supernode being processed
	Blk   int   // block row/column the collective is about (K for diag ops)
	Tree  *Tree // communication tree; reductions flow leaves→root
	Bytes int64 // payload bytes of one tree-edge message
}

// PointOp is a point-to-point transfer.
type PointOp struct {
	Kind     OpKind
	K, Blk   int
	Src, Dst int
	Bytes    int64
}

// SupernodePlan lists every communication operation generated by one
// supernode of the selected-inversion second loop (plus its pass-1
// broadcast).
type SupernodePlan struct {
	K     int
	Width int
	C     []int // Struct(K): off-diagonal block rows of supernode K

	DiagBcast  *CollOp   // pass 1; nil when C is empty
	Cross      []PointOp // one per I ∈ C
	ColBcasts  []CollOp  // one per I ∈ C
	RowReduces []CollOp  // one per J ∈ C
	DiagReduce *CollOp   // nil when C is empty
	SymmSends  []PointOp // one per J ∈ C (symmetric path only)

	// General (asymmetric-value) path only — nil/empty on symmetric plans:
	DiagBcastRow *CollOp   // pass-1 broadcast of the diagonal factor along row K
	CrossU       []PointOp // one per I ∈ C: Û_{K,I} to the row-broadcast root
	RowBcasts    []CollOp  // one per I ∈ C: Û_{K,I} within processor row I
	ColReduces   []CollOp  // one per J ∈ C: upper-block reduction onto (K,J)
}

// Plan is the complete communication plan of a PSelInv run: deterministic
// given (pattern, grid, scheme, seed, balancer), so every rank — and the
// timing simulator — can construct it independently without communication
// (§III).
type Plan struct {
	BP     *etree.BlockPattern
	Grid   *procgrid.Grid
	Scheme Scheme
	Seed   uint64
	// Balancer chose the supernode→process mapping; Owners is the explicit
	// owner map it produced. Every ownership decision in the plan — and in
	// the engines executing it — goes through Owners, never through the
	// grid's implicit block-cyclic formula.
	Balancer Balancer
	Owners   *procgrid.Map
	// HybridThreshold is the flat/shifted cutover for Scheme == Hybrid.
	HybridThreshold int
	// Symmetric selects the paper's implemented path (upper blocks are
	// transpose mirrors, SymmSends). False adds the full upper-triangle
	// communication pattern for asymmetric values.
	Symmetric bool
	// Topo is the rank→node placement consumed by the topology-aware
	// schemes (the paper's schemes ignore it).
	Topo   Topology
	Snodes []*SupernodePlan
}

// PlanConfig bundles the plan knobs beyond (pattern, grid).
type PlanConfig struct {
	Scheme Scheme
	Seed   uint64
	// HybridThreshold of 0 means DefaultHybridThreshold.
	HybridThreshold int
	Symmetric       bool
	// Topo's zero value means 24 ranks per node, the paper's platform and
	// netsim's cost model.
	Topo Topology
	// Balancer selects the supernode→process mapping; the zero value is
	// CyclicBalancer, the block-cyclic baseline.
	Balancer Balancer
}

// NewPlan builds the communication plan of the paper's default setting:
// the symmetric-value path on the block-cyclic map, with every other knob
// of PlanConfig at its default.
func NewPlan(bp *etree.BlockPattern, grid *procgrid.Grid, scheme Scheme, seed uint64) *Plan {
	return NewPlanConfig(bp, grid, PlanConfig{Scheme: scheme, Seed: seed, Symmetric: true})
}

// Side names one triangle of the second loop. The upper side is the lower
// side's program with rows and columns exchanged (arXiv 1708.04539): Row-Bcast
// for Col-Bcast, Col-Reduce for Row-Reduce, owner(k,i) for owner(i,k). The
// symmetric plan runs the lower side only (Û = L̂ᵀ, SymmSends mirror the
// result); the general plan runs both.
type Side int

const (
	Lower Side = iota
	Upper
)

// Block orients a side-relative block position: (i, k) names block (I,K) of
// the lower triangle and its mirror (K,I) of the upper one.
func (s Side) Block(i, k int) (row, col int) {
	if s == Upper {
		return k, i
	}
	return i, k
}

// sideKinds lists each side's four operation kinds.
var sideKinds = [2]struct{ diagBcast, cross, bcast, reduce OpKind }{
	Lower: {OpDiagBcast, OpCrossSend, OpColBcast, OpRowReduce},
	Upper: {OpDiagBcastRow, OpCrossSendU, OpRowBcast, OpColReduce},
}

// sideOps is one side's share of a supernode's communication: the pass-1
// broadcast of the diagonal factor to the owners of the side's factor blocks,
// the cross-send of each normalized block to its broadcast root, and one
// broadcast and one reduction per block of C.
type sideOps struct {
	DiagBcast *CollOp
	Cross     []PointOp
	Bcasts    []CollOp
	Reduces   []CollOp
}

// side returns the supernode's operations on side s (all empty for the upper
// side of a symmetric plan, and for a supernode with empty C).
func (sp *SupernodePlan) side(s Side) sideOps {
	if s == Upper {
		return sideOps{sp.DiagBcastRow, sp.CrossU, sp.RowBcasts, sp.ColReduces}
	}
	return sideOps{sp.DiagBcast, sp.Cross, sp.ColBcasts, sp.RowReduces}
}

var bothSides = [...]Side{Lower, Upper}

// Sides lists the sides the plan runs (shared storage: do not modify).
func (p *Plan) Sides() []Side {
	if p.Symmetric {
		return bothSides[:1]
	}
	return bothSides[:]
}

// EachOp visits every collective and every point operation of the supernode.
func (sp *SupernodePlan) EachOp(coll func(*CollOp), point func(*PointOp)) {
	for _, s := range bothSides {
		ops := sp.side(s)
		if ops.DiagBcast != nil {
			coll(ops.DiagBcast)
		}
		for i := range ops.Cross {
			point(&ops.Cross[i])
		}
		for i := range ops.Bcasts {
			coll(&ops.Bcasts[i])
		}
		for i := range ops.Reduces {
			coll(&ops.Reduces[i])
		}
	}
	if sp.DiagReduce != nil {
		coll(sp.DiagReduce)
	}
	for i := range sp.SymmSends {
		point(&sp.SymmSends[i])
	}
}

// NewPlanConfig exposes every plan knob.
func NewPlanConfig(bp *etree.BlockPattern, grid *procgrid.Grid, cfg PlanConfig) *Plan {
	if cfg.HybridThreshold == 0 {
		cfg.HybridThreshold = DefaultHybridThreshold
	}
	if cfg.Topo.CoresPerNode == 0 {
		cfg.Topo = defaultTopology()
	}
	p := &Plan{BP: bp, Grid: grid, Scheme: cfg.Scheme, Seed: cfg.Seed,
		HybridThreshold: cfg.HybridThreshold, Symmetric: cfg.Symmetric,
		Topo: cfg.Topo, Balancer: cfg.Balancer,
		Owners: cfg.Balancer.assign(bp, grid)}
	ns := bp.NumSnodes()
	p.Snodes = make([]*SupernodePlan, ns)
	var tb treeBuilder
	for k := 0; k < ns; k++ {
		sp := &SupernodePlan{K: k, Width: bp.Part.Width(k), C: bp.Struct(k)}
		p.Snodes[k] = sp
		if len(sp.C) == 0 {
			continue
		}
		for _, s := range p.Sides() {
			o := p.buildSide(&tb, sp, s)
			if s == Lower {
				sp.DiagBcast, sp.Cross, sp.ColBcasts, sp.RowReduces = o.DiagBcast, o.Cross, o.Bcasts, o.Reduces
			} else {
				sp.DiagBcastRow, sp.CrossU, sp.RowBcasts, sp.ColReduces = o.DiagBcast, o.Cross, o.Bcasts, o.Reduces
			}
		}
		// Diagonal update reduction within processor column K: the owners of
		// the lower blocks (J,K) contribute on either plan.
		wk := int64(sp.Width)
		owner := p.Owners.OwnerOfBlock
		dred := p.coll(&tb, OpDiagReduce, k, k, p.diagBytes(wk), owner(k, k), sp.C,
			func(j int) int { return owner(j, k) })
		sp.DiagReduce = &dred
		if p.Symmetric {
			// Mirror each finalized lower block to the upper triangle.
			for _, j := range sp.C {
				sp.SymmSends = append(sp.SymmSends, PointOp{
					Kind: OpSymmSend, K: k, Blk: j, Src: owner(j, k), Dst: owner(k, j),
					Bytes: int64(bp.Part.Width(j)) * wk * 8,
				})
			}
		}
	}
	return p
}

// buildSide builds side s of supernode sp. Block positions in the comments are
// side-relative (see Side.Block): read them as written for the lower side
// and transposed for the upper one.
func (p *Plan) buildSide(tb *treeBuilder, sp *SupernodePlan, s Side) sideOps {
	k, kinds := sp.K, sideKinds[s]
	wk := int64(sp.Width)
	owner := func(i, j int) int { return p.Owners.OwnerOfBlock(s.Block(i, j)) }
	// Pass 1: the packed diagonal factor travels to the owners of the side's
	// factor blocks (I,K), I ∈ C.
	dbc := p.coll(tb, kinds.diagBcast, k, k, p.diagBytes(wk), owner(k, k), sp.C,
		func(i int) int { return owner(i, k) })
	n := len(sp.C)
	ops := sideOps{DiagBcast: &dbc, Cross: make([]PointOp, 0, n),
		Bcasts: make([]CollOp, 0, n), Reduces: make([]CollOp, 0, n)}
	for _, i := range sp.C {
		bytes := int64(p.BP.Part.Width(i)) * wk * 8
		// The normalized block (I,K) crosses to the owner of (K,I), the root
		// of its broadcast to every rank holding a block A⁻¹(J,I), J ∈ C —
		// the paper's Col-Bcast on the lower side.
		root := owner(k, i)
		ops.Cross = append(ops.Cross, PointOp{Kind: kinds.cross, K: k, Blk: i,
			Src: owner(i, k), Dst: root, Bytes: bytes})
		ops.Bcasts = append(ops.Bcasts, p.coll(tb, kinds.bcast, k, i, bytes, root, sp.C,
			func(j int) int { return owner(j, i) }))
		// The partial products A⁻¹(I,J)·(J,K), J ∈ C, reduce onto the owner
		// of (I,K) — the paper's Row-Reduce on the lower side.
		ops.Reduces = append(ops.Reduces, p.coll(tb, kinds.reduce, k, i, bytes, owner(i, k), sp.C,
			func(j int) int { return owner(i, j) }))
	}
	return ops
}

// coll builds one collective over root and part(x) for every x ∈ c.
func (p *Plan) coll(tb *treeBuilder, kind OpKind, k, blk int, bytes int64, root int, c []int, part func(x int) int) CollOp {
	tb.ranks = append(tb.ranks[:0], root)
	for _, x := range c {
		tb.ranks = append(tb.ranks, part(x))
	}
	return CollOp{Kind: kind, K: k, Blk: blk, Bytes: bytes,
		Tree: tb.build(p.Scheme, root, p.Seed, OpKey(kind, k, blk), p.HybridThreshold, p.Topo)}
}

// diagBytes is the payload of a width-w Diag-Bcast or Diag-Reduce message: on
// a symmetric plan the packed lower triangle (L_KK and D_K down, a symmetric
// sum up), w(w+1)/2 words, else the whole block.
func (p *Plan) diagBytes(w int64) int64 {
	if p.Symmetric {
		return w * (w + 1) / 2 * 8
	}
	return w * w * 8
}

// CrossNodeStats aggregates the plan's inter-node communication over its
// collective trees — the scheme-dependent traffic (point ops are fixed by
// block ownership and identical across schemes, so they are excluded).
// Edges counts cross-node tree edges and Bytes is the payload volume they
// carry.
type CrossNodeStats struct {
	Edges int
	Bytes int64
}

// CrossNodeStats computes the inter-node traffic of every collective in
// the plan under its topology.
func (p *Plan) CrossNodeStats() CrossNodeStats {
	var st CrossNodeStats
	for _, sp := range p.Snodes {
		sp.EachOp(func(op *CollOp) {
			e := op.Tree.CrossNodeEdges(p.Topo)
			st.Edges += e
			st.Bytes += int64(e) * op.Bytes
		}, func(*PointOp) {})
	}
	return st
}

// RankLoad tallies the estimated second-pass work and factor storage the
// owner map assigns to one rank.
type RankLoad struct {
	Flops int64
	NNZ   int64
}

// RankLoads charges every block the second pass touches (diagonal
// inversions, TRSM blocks, GEMM contributions) to its owner under the
// plan's owner map and returns the per-rank tallies. Deterministic and
// purely analytic: the same forEachBlockLoad walk feeds the balancer
// weights, so these numbers measure exactly what the balancers optimize.
func (p *Plan) RankLoads() []RankLoad {
	loads := make([]RankLoad, p.Grid.Size())
	forEachBlockLoad(p.BP, func(i, j int, flops, nnz int64) {
		r := p.Owners.OwnerOfBlock(i, j)
		loads[r].Flops += flops
		loads[r].NNZ += nnz
	})
	return loads
}

// LoadImbalance summarizes per-rank loads as max/mean imbalance factors
// (1.0 = perfectly balanced, P = everything on one rank).
func LoadImbalance(loads []RankLoad) (flops, nnz float64) {
	var sumF, sumN, maxF, maxN int64
	for _, l := range loads {
		sumF += l.Flops
		sumN += l.NNZ
		if l.Flops > maxF {
			maxF = l.Flops
		}
		if l.NNZ > maxN {
			maxN = l.NNZ
		}
	}
	n := float64(len(loads))
	if sumF > 0 {
		flops = float64(maxF) * n / float64(sumF)
	}
	if sumN > 0 {
		nnz = float64(maxN) * n / float64(sumN)
	}
	return flops, nnz
}
