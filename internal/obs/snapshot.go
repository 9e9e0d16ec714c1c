// Snapshot is the per-rank record of an observed run: the rank's collector
// state (traffic-matrix rows, event ring, wait statistics, spans), its
// planned load and scheduler statistics and — when the rank had a process of
// its own — the clock-offset measurements from the transport handshake. The
// engine emits one per local rank; a distributed worker serializes its own
// and the launcher decodes them. Either way one snapshot per rank is merged
// into a single Report and a single span timeline on one clock.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"pselinv/internal/simmpi"
)

// Snapshot is one rank's telemetry in wire form. All times are nanoseconds
// on the owning process's clock (a shared per-process epoch: see
// NewCollector); the merge shifts them onto rank 0's clock.
type Snapshot struct {
	P            int `json:"p"`
	Rank         int `json:"rank"`
	CoresPerNode int `json:"cores_per_node,omitempty"`

	// Per-class traffic-matrix rows of the owning rank: SentB[class][dst]
	// and RecvB[class][src] are bytes, SentN/RecvN message counts. Unused
	// classes stay nil, exactly as in the live collector.
	SentB [][]int64 `json:"sent_b,omitempty"`
	RecvB [][]int64 `json:"recv_b,omitempty"`
	SentN [][]int64 `json:"sent_n,omitempty"`
	RecvN [][]int64 `json:"recv_n,omitempty"`

	// Events is the retained event ring, oldest first; RingLen counts all
	// events ever appended, so RingLen - len(Events) were dropped (ring
	// overflow, or trimmed by TrimToSize to bound the wire frame).
	Events  []Event `json:"events,omitempty"`
	RingLen int64   `json:"ring_len,omitempty"`

	RecvWaitNS    int64 `json:"recv_wait_ns,omitempty"`
	RecvWaitMaxNS int64 `json:"recv_wait_max_ns,omitempty"`
	RecvWaitCount int64 `json:"recv_wait_count,omitempty"`
	QueueHWM      int64 `json:"queue_hwm,omitempty"`

	// WallNS is the run's wall time as this rank's process measured it;
	// PlanFlops/PlanNNZ the planned load the balancer charged to this rank,
	// Balancer its slug — carried per-rank so the merge can assemble the
	// load and straggler sections without the plan.
	WallNS    int64  `json:"wall_ns,omitempty"`
	PlanFlops int64  `json:"plan_flops,omitempty"`
	PlanNNZ   int64  `json:"plan_nnz,omitempty"`
	Balancer  string `json:"balancer,omitempty"`

	// Dag holds the rank's task-DAG scheduler statistics; nil for a run
	// that executed sequentially.
	Dag *DagRankStats `json:"dag,omitempty"`

	// Spans is the rank's timeline in append order (same clock as Events).
	Spans []Span `json:"spans,omitempty"`

	// Clock holds the handshake clock-offset measurements this process
	// made toward its peers (one per ordered pair it dialed). Ranks that
	// shared a process have none.
	Clock []ClockMeasurement `json:"clock,omitempty"`
}

// EncodeRank returns one rank's slice of the collector; the engine fills in
// what the collector does not see (wall, plan load, scheduler statistics).
// Safe to call only after the run completed.
func (c *Collector) EncodeRank(rank int) *Snapshot {
	ro := &c.ranks[rank]
	return &Snapshot{
		P:             c.p,
		Rank:          rank,
		CoresPerNode:  c.coresPerNode,
		SentB:         ro.sentB,
		RecvB:         ro.recvB,
		SentN:         ro.sentN,
		RecvN:         ro.recvN,
		Events:        ro.events(),
		RingLen:       ro.ringLen,
		RecvWaitNS:    int64(ro.waitTotal),
		RecvWaitMaxNS: int64(ro.waitMax),
		RecvWaitCount: ro.waitCount,
		QueueHWM:      ro.hwm.Load(),
		Spans:         ro.spans,
	}
}

// MarshalSnapshot encodes a snapshot as one compact JSON line.
func MarshalSnapshot(s *Snapshot) ([]byte, error) { return json.Marshal(s) }

// UnmarshalSnapshot decodes a snapshot produced by MarshalSnapshot.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	s := &Snapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("obs: decode snapshot: %w", err)
	}
	return s, nil
}

// TrimToSize drops the oldest ring events until the encoded snapshot fits
// in maxBytes, returning the encoding. The traffic matrices (exact
// counters) are never trimmed; a trimmed ring shows up as dropped events in
// the merged report, which then marks its chain analysis incomplete — the
// same degradation as ring overflow inside the collector.
func (s *Snapshot) TrimToSize(maxBytes int) ([]byte, error) {
	data, err := MarshalSnapshot(s)
	if err != nil {
		return nil, err
	}
	for len(data) > maxBytes && len(s.Events) > 0 {
		// Events dominate the encoding; estimate how many must go from the
		// mean event size, then re-measure (halving as the fallback keeps
		// the loop logarithmic even if the estimate is off).
		excess := len(data) - maxBytes
		per := len(data) / (len(s.Events) + 1)
		drop := excess/per + 1
		if drop > len(s.Events) {
			drop = len(s.Events)
		} else if drop < len(s.Events)/2 {
			drop = len(s.Events) / 2
		}
		s.Events = append([]Event(nil), s.Events[drop:]...)
		if data, err = MarshalSnapshot(s); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Merged is the combination of one snapshot per rank: the snapshots in rank
// order with their messages matched (see matchMessages), the merged span
// timeline, and — when the ranks lived on different clocks — the clock
// section documenting the correction.
type Merged struct {
	// Spans is the merged, canonically sorted timeline on one clock.
	Spans []Span
	// Clock documents the per-rank corrections and is attached to reports
	// built via Report; nil when the snapshots shared a clock.
	Clock *ClockReport

	byRank []*Snapshot
	table  *msgTable
}

// Merge combines one snapshot per rank (any order; exactly ranks 0..P-1 of
// a common world size) into a Merged run. Snapshots that carry handshake
// clock measurements come from different processes and are aligned first
// (see alignClocks). Snapshots without any were taken on one clock — the
// ranks shared a process — so their times are kept as they are and the
// merged run has no clock section: that is read off the snapshots, not
// configured. An event the engine cannot record (a peer outside the world
// or equal to the rank, an unknown direction, a repeated send or receive of
// one (tag, src, dst)) is an error naming its rank and tag. The snapshots
// are aliased (and, when aligned, shifted in place), so decode them afresh
// to merge twice.
func Merge(snaps []*Snapshot) (*Merged, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("obs: merge of zero snapshots")
	}
	// One snapshot per rank, so the slice bounds the world size a (possibly
	// hostile) snapshot declares before anything is sized by it.
	p := snaps[0].P
	if p != len(snaps) {
		return nil, fmt.Errorf("obs: merge: %d snapshots for a world of %d ranks", len(snaps), p)
	}
	byRank := make([]*Snapshot, p)
	for _, s := range snaps {
		if s.P != p {
			return nil, fmt.Errorf("obs: merge: world size mismatch (%d vs %d)", s.P, p)
		}
		if s.Rank < 0 || s.Rank >= p {
			return nil, fmt.Errorf("obs: merge: rank %d out of range [0,%d)", s.Rank, p)
		}
		if byRank[s.Rank] != nil {
			return nil, fmt.Errorf("obs: merge: duplicate snapshot for rank %d", s.Rank)
		}
		byRank[s.Rank] = s
		for _, rows := range [][][]int64{s.SentB, s.RecvB, s.SentN, s.RecvN} {
			if rows != nil && len(rows) != numClasses {
				return nil, fmt.Errorf("obs: merge: rank %d snapshot has %d classes, want %d", s.Rank, len(rows), numClasses)
			}
			for _, row := range rows {
				if row != nil && len(row) != p {
					return nil, fmt.Errorf("obs: merge: rank %d snapshot has a traffic row of %d peers, want %d", s.Rank, len(row), p)
				}
			}
		}
	}
	for r, s := range byRank {
		if s == nil {
			return nil, fmt.Errorf("obs: merge: missing snapshot for rank %d", r)
		}
	}

	table, err := matchMessages(byRank)
	if err != nil {
		return nil, err
	}
	m := &Merged{byRank: byRank, table: table}
	for _, s := range byRank {
		if len(s.Clock) > 0 {
			m.Clock = alignClocks(byRank, table)
			break
		}
	}
	nspans := 0
	for _, s := range byRank {
		nspans += len(s.Spans)
	}
	m.Spans = make([]Span, 0, nspans)
	for _, s := range byRank {
		m.Spans = append(m.Spans, s.Spans...)
	}
	SortSpans(m.Spans)
	return m, nil
}

// alignClocks moves the event and span times of snapshots taken in different
// processes onto rank 0's clock, in place: shifted by the handshake offset
// estimates, then repaired so every matched send→recv edge is non-negative —
// first by constraint relaxation of the per-rank offsets (bounded by the
// offsets' uncertainty in practice), then by clamping any residual edge,
// counting both in the returned clock section. A final uniform shift moves
// the earliest timestamp to zero so the timeline starts where a one-process
// one would.
func alignClocks(byRank []*Snapshot, table *msgTable) *ClockReport {
	p := len(byRank)
	// Per-rank clock corrections: pairwise midpoint estimates combined and
	// anchored at rank 0, then relaxed against the causality constraints
	// observed in the event stream itself.
	meas := make([][]ClockMeasurement, p)
	for r, s := range byRank {
		meas[r] = s.Clock
	}
	off, unc := combineOffsets(p, meas)
	rounds := relaxOffsets(off, table.slacks(byRank))

	shift := func(s *Snapshot, d time.Duration) {
		for i := range s.Events {
			s.Events[i].T -= d
		}
		for i := range s.Spans {
			s.Spans[i].Start -= d
			s.Spans[i].End -= d
		}
	}
	var base time.Duration
	haveBase := false
	seeBase := func(t time.Duration) {
		if !haveBase || t < base {
			base, haveBase = t, true
		}
	}
	for r, s := range byRank {
		shift(s, time.Duration(off[r]))
		for _, e := range s.Events {
			seeBase(e.T)
		}
		for _, sp := range s.Spans {
			seeBase(sp.Start)
		}
	}

	// Residual causality violations (negative constraint cycles from
	// estimator noise) are clamped per edge: the recv timestamp is lifted
	// to the send timestamp. The uniform base shift that follows cancels in
	// every edge latency, so minEdge needs no adjustment.
	clamped, minEdge := table.clamp(byRank)
	if base != 0 {
		for _, s := range byRank {
			shift(s, base)
		}
	}

	clock := &ClockReport{
		RelaxRounds:  rounds,
		ClampedEdges: clamped,
		MinEdgeNS:    minEdge,
		Ranks:        make([]*ClockRank, p),
	}
	for r := 0; r < p; r++ {
		clock.Ranks[r] = &ClockRank{Rank: r, OffsetNS: off[r], UncNS: unc[r]}
		if unc[r] > clock.MaxUncNS {
			clock.MaxUncNS = unc[r]
		}
	}
	return clock
}

// CheckConservation verifies the merged matrices against externally
// tracked per-class totals (the launcher's global conservation counters):
// for every class, the matrix row sums must equal sentBytes/sentMsgs and
// the column sums recvBytes/recvMsgs. A mismatch means telemetry was lost
// or double-counted in flight.
func (m *Merged) CheckConservation(sentBytes, recvBytes, sentMsgs, recvMsgs func(class simmpi.Class) int64) error {
	var errs []string
	for _, class := range simmpi.Classes() {
		var sb, rb, sn, rn int64
		for _, s := range m.byRank {
			sb += sum(row(s.SentB, class))
			rb += sum(row(s.RecvB, class))
			sn += sum(row(s.SentN, class))
			rn += sum(row(s.RecvN, class))
		}
		if want := sentBytes(class); sb != want {
			errs = append(errs, fmt.Sprintf("%v: matrix sent bytes %d != counter %d", class, sb, want))
		}
		if want := recvBytes(class); rb != want {
			errs = append(errs, fmt.Sprintf("%v: matrix recv bytes %d != counter %d", class, rb, want))
		}
		if want := sentMsgs(class); sn != want {
			errs = append(errs, fmt.Sprintf("%v: matrix sent msgs %d != counter %d", class, sn, want))
		}
		if want := recvMsgs(class); rn != want {
			errs = append(errs, fmt.Sprintf("%v: matrix recv msgs %d != counter %d", class, rn, want))
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("obs: merged-report conservation violated: %v", errs)
	}
	return nil
}

// TailString renders the newest n retained events of the snapshot's ring as
// a compact multi-line string — the post-mortem appendix a crashed worker
// attaches to its failure report so the launcher shows the last messages
// each rank saw.
func (s *Snapshot) TailString(n int) string {
	evs := s.Events
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	if len(evs) == 0 {
		return fmt.Sprintf("rank %d: no events retained", s.Rank)
	}
	out := fmt.Sprintf("rank %d: last %d of %d events:", s.Rank, len(evs), s.RingLen)
	for _, e := range evs {
		dir := "send to"
		if e.Dir == DirRecv {
			dir = "recv from"
		}
		out += fmt.Sprintf("\n  t=%-12v %s %-4d %-12v tag=%#x %d B",
			time.Duration(e.T).Round(time.Microsecond), dir, e.Peer, e.Class, e.Tag, e.Bytes)
	}
	return out
}
