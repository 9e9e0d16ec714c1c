package core

// Analytic per-rank communication volumes. The traffic of a PSelInv run is
// fully determined by the plan — every tree edge carries one message of its
// op's blocks — so the per-rank sent/received byte vectors can be computed
// without executing anything. The engine's measured counters match these
// exactly, per rank and per class (internal/pselinv's
// TestMeasuredVolumesMatchPlanExactly), so these vectors are what
// cmd/commvol summarizes into the paper's §IV-A tables and figures on its
// 46×46 grid, from a symbolic analysis alone.

// PerRankSent returns bytes sent by each rank for one operation kind
// (self-sends excluded, as in the engine's accounting).
func (p *Plan) PerRankSent(kind OpKind) []int64 { return p.perRank(kind, false) }

// PerRankRecv returns bytes received by each rank for one operation kind.
func (p *Plan) PerRankRecv(kind OpKind) []int64 { return p.perRank(kind, true) }

func (p *Plan) perRank(kind OpKind, recv bool) []int64 {
	out := make([]int64, p.Grid.Size())
	p.eachMessage(func(k OpKind, src, dst int, bytes int64) {
		if recv {
			src = dst
		}
		if k == kind {
			out[src] += bytes
		}
	})
	return out
}

// PerRankTotalSent sums sent bytes over all operation kinds.
func (p *Plan) PerRankTotalSent() []int64 {
	out := make([]int64, p.Grid.Size())
	p.eachMessage(func(_ OpKind, src, _ int, bytes int64) { out[src] += bytes })
	return out
}

// PerRankMsgs returns, per rank, how many messages the plan has it send
// plus receive over all operation kinds (self-sends excluded). The world's
// measured SentMsgs + RecvMsgs match it exactly, which makes it the size
// of the event stream an observed run records on that rank.
func (p *Plan) PerRankMsgs() []int {
	out := make([]int, p.Grid.Size())
	p.eachMessage(func(_ OpKind, src, dst int, _ int64) {
		out[src]++
		out[dst]++
	})
	return out
}

// eachMessage calls visit once per inter-rank message of the plan.
func (p *Plan) eachMessage(visit func(kind OpKind, src, dst int, bytes int64)) {
	for _, sp := range p.Snodes {
		sp.EachOp(func(op *CollOp) {
			// Broadcast: every non-root participant receives one payload from
			// its parent; reduction trees carry the same edge set upward, so
			// byte counts per edge are identical — only the direction flips.
			reduces := op.Kind == OpRowReduce || op.Kind == OpDiagReduce || op.Kind == OpColReduce
			parts := op.Tree.parts
			for i, up := range op.Tree.up {
				if up < 0 {
					continue
				}
				if r, parent := parts[i], parts[up]; reduces {
					visit(op.Kind, r, parent, op.Bytes)
				} else {
					visit(op.Kind, parent, r, op.Bytes)
				}
			}
		}, func(op *PointOp) {
			if op.Src != op.Dst {
				visit(op.Kind, op.Src, op.Dst, op.Bytes)
			}
		})
	}
}
