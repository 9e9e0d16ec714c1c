// Clock-offset estimation for merged multi-process reports. Each worker
// process timestamps its telemetry on its own monotonic clock (ns since a
// local epoch); the TCP transport measures pairwise offsets during the PSLV
// handshake with N ping/pong round trips and the classic NTP midpoint
// estimator. This file combines those pairwise measurements into one
// correction per rank (anchored at rank 0) and repairs any residual
// causality violations so every matched send→recv edge in the merged
// timeline has non-negative latency.
package obs

// ClockMeasurement is one ordered-pair handshake estimate as recorded by
// the dialing process: OffsetNS estimates (peer clock − local clock) at the
// midpoint of the best round trip, UncNS is the worst-case uncertainty
// (half the round-trip time: the true offset lies within ±UncNS if the
// network did not reorder time itself), RTTNS the best observed round trip.
type ClockMeasurement struct {
	Peer     int   `json:"peer"`
	OffsetNS int64 `json:"offset_ns"`
	UncNS    int64 `json:"unc_ns"`
	RTTNS    int64 `json:"rtt_ns"`
}

// ClockRank is one rank's entry in the merged report's clock section:
// OffsetNS is the correction subtracted from every timestamp of that rank
// (its clock minus rank 0's), UncNS the worst-case uncertainty of that
// estimate.
type ClockRank struct {
	Rank     int   `json:"rank"`
	OffsetNS int64 `json:"offset_ns"`
	UncNS    int64 `json:"unc_ns"`
}

// ClockReport is the clock-alignment section of a merged report.
type ClockReport struct {
	// MaxUncNS is the largest per-rank offset uncertainty: the merged
	// timeline's cross-process timestamps are comparable to within this.
	MaxUncNS int64 `json:"max_unc_ns"`
	// RelaxRounds is how many constraint-relaxation passes the causality
	// repair used (0: the midpoint estimates already satisfied every
	// send→recv edge).
	RelaxRounds int `json:"relax_rounds,omitempty"`
	// ClampedEdges counts matched send→recv edges that still pointed
	// backward in time after relaxation and had their recv timestamp
	// lifted to the send timestamp. Non-zero values mean per-link
	// latencies below the estimator's resolution.
	ClampedEdges int `json:"clamped_edges,omitempty"`
	// MinEdgeNS is the smallest offset-corrected send→recv latency over
	// every matched edge after repair; the merge guarantees it is >= 0.
	MinEdgeNS int64        `json:"min_edge_ns"`
	Ranks     []*ClockRank `json:"ranks"`
}

// combineOffsets folds the per-process pairwise measurements into one
// offset per rank relative to rank 0. meas[r] holds rank r's measurements
// toward its peers (meas[r][i].OffsetNS estimates clock_peer − clock_r).
// With both directions available the two estimates are averaged —
// θ_0r measures (r − 0) and θ_r0 measures (0 − r), so
// off[r] = (θ_0r − θ_r0) / 2 and the uncertainties average too; with one
// direction it is used alone; with neither the offset is 0 with 0 claimed
// uncertainty (the causality repair is then the only correction).
func combineOffsets(p int, meas [][]ClockMeasurement) (off, unc []int64) {
	off = make([]int64, p)
	unc = make([]int64, p)
	find := func(rank, peer int) (ClockMeasurement, bool) {
		if rank >= len(meas) {
			return ClockMeasurement{}, false
		}
		for _, m := range meas[rank] {
			if m.Peer == peer {
				return m, true
			}
		}
		return ClockMeasurement{}, false
	}
	for r := 1; r < p; r++ {
		fwd, okF := find(0, r) // rank 0's view: clock_r − clock_0
		rev, okR := find(r, 0) // rank r's view: clock_0 − clock_r
		switch {
		case okF && okR:
			off[r] = (fwd.OffsetNS - rev.OffsetNS) / 2
			unc[r] = (fwd.UncNS + rev.UncNS) / 2
		case okF:
			off[r] = fwd.OffsetNS
			unc[r] = fwd.UncNS
		case okR:
			off[r] = -rev.OffsetNS
			unc[r] = rev.UncNS
		}
	}
	return off, unc
}

// relaxOffsets repairs the per-rank offsets against the causality
// constraints observed in the merged event stream: for every ordered pair
// (a, b) that exchanged messages, the pair's slack is the minimum raw
// (recv_b − send_a) over its matched messages, and feasibility requires
// off[b] − off[a] <= slack so that every corrected edge latency stays
// non-negative. Bellman-Ford-style relaxation (at most p rounds — constraint
// chains cannot be longer) pulls violating offsets down, visiting the pairs
// in their (src, dst) order so identical snapshots relax identically; the
// result is re-anchored so off[0] == 0, which shifts all ranks uniformly and
// changes no edge latency. Returns the number of rounds that changed
// anything; residual violations (possible only if measurement noise created
// a negative constraint cycle) are left for per-edge clamping.
func relaxOffsets(off []int64, slacks []slack) (rounds int) {
	p := len(off)
	for round := 0; round < p; round++ {
		changed := false
		for _, s := range slacks {
			if off[s.dst] > off[s.src]+s.ns {
				off[s.dst] = off[s.src] + s.ns
				changed = true
			}
		}
		if !changed {
			break
		}
		rounds++
	}
	if anchor := off[0]; anchor != 0 {
		for r := range off {
			off[r] -= anchor
		}
	}
	return rounds
}
