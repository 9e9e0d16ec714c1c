// Straggler attribution: decompose each rank's wall time into busy /
// recv-wait / idle and diff the measured busy share against the
// balancer's predicted per-rank flop share (core.Plan.RankLoads). A rank
// whose measured/predicted ratio exceeds the threshold is flagged — the
// balancer thought it gave that rank its fair slice but the hardware or the
// schedule disagreed, which is exactly the evidence the paper's load-balance
// figures argue from.
package obs

// DefaultStragglerThreshold flags ranks whose measured busy share exceeds
// 1.5x their predicted flop share. Loose enough that kernel-level variance
// on a balanced run stays quiet, tight enough that a rank doing double its
// predicted work is always surfaced.
const DefaultStragglerThreshold = 1.5

// RankStraggler is one rank's wall-time decomposition against its predicted
// share of the work.
type RankStraggler struct {
	Rank int `json:"rank"`
	// WallNS is the rank's process wall time (worker elapsed for
	// multi-process runs, run elapsed for in-process ones).
	WallNS int64 `json:"wall_ns"`
	// BusyNS sums the rank's traced spans (compute + collective bodies).
	// Blocked-recv wait inside a collective span counts as busy here and is
	// broken out separately in RecvWaitNS, so the columns overlap rather
	// than partition exactly.
	BusyNS int64 `json:"busy_ns"`
	// SendWaitNS is always 0: sends never block (the MPI_Isend
	// discipline). The column stays for readers of the report schema.
	SendWaitNS int64 `json:"send_wait_ns"`
	RecvWaitNS int64 `json:"recv_wait_ns"`
	// IdleNS is max(0, wall - busy): time outside every traced span.
	IdleNS int64 `json:"idle_ns"`
	// PredFlops is the balancer's planned flop charge for this rank;
	// PredShare its fraction of the total plan.
	PredFlops int64   `json:"pred_flops"`
	PredShare float64 `json:"pred_share"`
	// BusyShare is the rank's fraction of the total measured busy time;
	// Ratio = BusyShare / PredShare (1.0 means the balancer's prediction
	// held exactly).
	BusyShare float64 `json:"busy_share"`
	Ratio     float64 `json:"ratio"`
	Flagged   bool    `json:"flagged,omitempty"`
}

// StragglerReport is the per-rank straggler section of a report.
type StragglerReport struct {
	Threshold    float64          `json:"threshold"`
	MaxRatio     float64          `json:"max_ratio"`
	FlaggedRanks []int            `json:"flagged_ranks,omitempty"`
	Ranks        []*RankStraggler `json:"ranks"`
}

// NewStragglerReport builds the straggler section for p ranks. Any of the
// measurement slices may be nil (treated as all-zero); short slices are read
// as zero-padded.
func NewStragglerReport(p int, wall, busy, recvWait, predFlops []int64) *StragglerReport {
	at := func(xs []int64, i int) int64 {
		if i < len(xs) {
			return xs[i]
		}
		return 0
	}
	var totalBusy, totalFlops int64
	for r := 0; r < p; r++ {
		totalBusy += at(busy, r)
		totalFlops += at(predFlops, r)
	}
	s := &StragglerReport{Threshold: DefaultStragglerThreshold, Ranks: make([]*RankStraggler, p)}
	for r := 0; r < p; r++ {
		rs := &RankStraggler{
			Rank:       r,
			WallNS:     at(wall, r),
			BusyNS:     at(busy, r),
			RecvWaitNS: at(recvWait, r),
			PredFlops:  at(predFlops, r),
		}
		if idle := rs.WallNS - rs.BusyNS; idle > 0 {
			rs.IdleNS = idle
		}
		if totalFlops > 0 {
			rs.PredShare = round4(float64(rs.PredFlops) / float64(totalFlops))
		}
		if totalBusy > 0 {
			rs.BusyShare = round4(float64(rs.BusyNS) / float64(totalBusy))
		}
		// The ratio is only meaningful when both sides exist: an untraced
		// run (no busy) or a rank the plan assigned no work to reports 0.
		if rs.PredShare > 0 && totalBusy > 0 {
			rs.Ratio = round4(rs.BusyShare / rs.PredShare)
		}
		if rs.Ratio > s.MaxRatio {
			s.MaxRatio = rs.Ratio
		}
		if rs.Ratio > DefaultStragglerThreshold {
			rs.Flagged = true
			s.FlaggedRanks = append(s.FlaggedRanks, r)
		}
		s.Ranks[r] = rs
	}
	return s
}

// round4 keeps the report's derived ratios at 4 decimals so float formatting
// noise cannot perturb golden files.
func round4(x float64) float64 {
	return float64(int64(x*10000+0.5)) / 10000
}
