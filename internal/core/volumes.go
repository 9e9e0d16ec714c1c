package core

// Analytic per-rank communication volumes. The traffic of a PSelInv run is
// fully determined by the plan — every tree edge carries exactly one block
// payload — so the per-rank sent/received byte vectors can be computed
// without executing anything. The engine's measured counters match these
// exactly (cross-validated in internal/pselinv's tests), which makes this
// the cheap way to evaluate load balance at grids far larger than the
// numeric path can run (e.g. the paper's literal 46×46 audikw_1 grid).

// allKinds lists every operation kind a plan can hold.
var allKinds = []OpKind{OpDiagBcast, OpCrossSend, OpColBcast, OpRowReduce,
	OpDiagReduce, OpSymmSend, OpDiagBcastRow, OpCrossSendU, OpRowBcast, OpColReduce}

// PerRankSent returns bytes sent by each rank for one operation kind
// (self-sends excluded, as in the engine's accounting).
func (p *Plan) PerRankSent(kind OpKind) []int64 {
	out := make([]int64, p.Grid.Size())
	p.eachMessage(kind, func(src, _ int, bytes int64) { out[src] += bytes })
	return out
}

// PerRankRecv returns bytes received by each rank for one operation kind.
func (p *Plan) PerRankRecv(kind OpKind) []int64 {
	out := make([]int64, p.Grid.Size())
	p.eachMessage(kind, func(_, dst int, bytes int64) { out[dst] += bytes })
	return out
}

// PerRankTotalSent sums sent bytes over all operation kinds.
func (p *Plan) PerRankTotalSent() []int64 {
	out := make([]int64, p.Grid.Size())
	for _, kind := range allKinds {
		p.eachMessage(kind, func(src, _ int, bytes int64) { out[src] += bytes })
	}
	return out
}

// PerRankMsgs returns, per rank, how many messages the plan has it send
// plus receive over all operation kinds (self-sends excluded). The world's
// measured SentMsgs + RecvMsgs match it exactly, which makes it the size
// of the event stream an observed run records on that rank.
func (p *Plan) PerRankMsgs() []int {
	out := make([]int, p.Grid.Size())
	for _, kind := range allKinds {
		p.eachMessage(kind, func(src, dst int, _ int64) {
			out[src]++
			out[dst]++
		})
	}
	return out
}

// eachMessage calls visit once per inter-rank message of one kind.
func (p *Plan) eachMessage(kind OpKind, visit func(src, dst int, bytes int64)) {
	coll := func(op *CollOp) {
		// Broadcast: every non-root participant receives one payload from
		// its parent; reduction trees carry the same edge set upward, so
		// byte counts per edge are identical — only the direction flips.
		reduces := op.Kind == OpRowReduce || op.Kind == OpDiagReduce || op.Kind == OpColReduce
		for _, r := range op.Tree.Participants() {
			if r == op.Tree.Root {
				continue
			}
			if parent := op.Tree.Parent(r); reduces {
				visit(r, parent, op.Bytes)
			} else {
				visit(parent, r, op.Bytes)
			}
		}
	}
	point := func(op *PointOp) {
		if op.Src != op.Dst {
			visit(op.Src, op.Dst, op.Bytes)
		}
	}
	for _, sp := range p.Snodes {
		switch kind {
		case OpDiagBcast:
			if sp.DiagBcast != nil {
				coll(sp.DiagBcast)
			}
		case OpCrossSend:
			for i := range sp.Cross {
				point(&sp.Cross[i])
			}
		case OpColBcast:
			for i := range sp.ColBcasts {
				coll(&sp.ColBcasts[i])
			}
		case OpRowReduce:
			for i := range sp.RowReduces {
				coll(&sp.RowReduces[i])
			}
		case OpDiagReduce:
			if sp.DiagReduce != nil {
				coll(sp.DiagReduce)
			}
		case OpSymmSend:
			for i := range sp.SymmSends {
				point(&sp.SymmSends[i])
			}
		case OpDiagBcastRow:
			if sp.DiagBcastRow != nil {
				coll(sp.DiagBcastRow)
			}
		case OpCrossSendU:
			for i := range sp.CrossU {
				point(&sp.CrossU[i])
			}
		case OpRowBcast:
			for i := range sp.RowBcasts {
				coll(&sp.RowBcasts[i])
			}
		case OpColReduce:
			for i := range sp.ColReduces {
				coll(&sp.ColReduces[i])
			}
		}
	}
}
