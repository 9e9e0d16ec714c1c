package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"pselinv/internal/obs"
	"pselinv/internal/simmpi"
)

// TestSnapshotRoundTrip records through a live collector, encodes rank 0's
// slice, and checks the wire round trip preserves everything bit-for-bit.
func TestSnapshotRoundTrip(t *testing.T) {
	col := obs.NewCollector([]int{8, 8, 8}, time.Now())
	col.RecordSend(0, 1, simmpi.ClassDiagBcast, 0xbeef, 800, 2)
	col.RecordSend(0, 2, simmpi.ClassOther, 0xcafe, 160, 1)
	col.RecordRecv(1, 0, simmpi.ClassCrossSend, 0xf00d, 320, 5*time.Microsecond)
	col.RecordRecv(0, 0, simmpi.ClassOther, 1, 8, time.Microsecond) // self: wait only

	snap := col.EncodeRank(0)
	snap.WallNS = 123456
	snap.PlanFlops = 999
	snap.PlanNNZ = 77
	snap.Balancer = "work"
	snap.Dag = &obs.DagRankStats{Rank: 0, Tasks: 12, Offloaded: 5, MaxWidth: 3, MaxInflight: 2,
		BusyNS: 900, WallNS: 1200, Occupancy: 0.75}
	snap.Spans = []obs.Span{{Rank: 0, Kind: "update", Supernode: 4, Start: 10, End: 30}}
	snap.Clock = []obs.ClockMeasurement{{Peer: 1, OffsetNS: -42, UncNS: 7, RTTNS: 14}}

	data, err := obs.MarshalSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := obs.UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, snap)
	}
	if got.RingLen != 3 || len(got.Events) != 3 {
		t.Fatalf("ring: got len=%d retained=%d, want 3/3 (self-recv excluded)", got.RingLen, len(got.Events))
	}
	if got.RecvWaitCount != 2 || got.RecvWaitNS != int64(6*time.Microsecond) {
		t.Fatalf("wait stats lost: %+v", got)
	}
}

// skewedWorld hand-builds one snapshot per rank for a fixed message pattern,
// with every rank's timestamps shifted onto its own clock: local = true +
// skew[r]. clockErr perturbs the handshake measurements away from the truth
// to exercise the causality repair.
func skewedWorld(t *testing.T, skew []int64, clockErr int64, unc int64) []*obs.Snapshot {
	t.Helper()
	p := len(skew)
	nc := len(simmpi.Classes())
	snaps := make([]*obs.Snapshot, p)
	for r := range snaps {
		snaps[r] = &obs.Snapshot{P: p, Rank: r, Balancer: "work",
			WallNS: 1_000_000, PlanFlops: int64(100 * (r + 1)), PlanNNZ: int64(10 * (r + 1))}
	}
	row := func(rows *[][]int64) []int64 {
		if *rows == nil {
			*rows = make([][]int64, nc)
		}
		if (*rows)[simmpi.ClassDiagBcast] == nil {
			(*rows)[simmpi.ClassDiagBcast] = make([]int64, p)
		}
		return (*rows)[simmpi.ClassDiagBcast]
	}
	// Ring pattern: rank r sends tag 100+r to rank (r+1)%p at true time
	// 1000*(r+1), delivered 500ns later.
	for r := 0; r < p; r++ {
		dst := (r + 1) % p
		sendT := int64(1000 * (r + 1))
		recvT := sendT + 500
		tag := uint64(100 + r)
		s, d := snaps[r], snaps[dst]
		s.Events = append(s.Events, obs.Event{
			T: time.Duration(sendT + skew[r]), Tag: tag, Bytes: 80,
			Peer: int32(dst), Class: simmpi.ClassDiagBcast, Dir: obs.DirSend,
		})
		s.RingLen++
		row(&s.SentB)[dst] += 80
		row(&s.SentN)[dst]++
		d.Events = append(d.Events, obs.Event{
			T: time.Duration(recvT + skew[dst]), Tag: tag, Bytes: 80,
			Peer: int32(r), Class: simmpi.ClassDiagBcast, Dir: obs.DirRecv,
		})
		d.RingLen++
		row(&d.RecvB)[r] += 80
		row(&d.RecvN)[r]++
	}
	// Each rank also carries one traced span on its own clock.
	for r, s := range snaps {
		s.Spans = []obs.Span{{
			Rank: r, Kind: "update", Supernode: r,
			Start: time.Duration(int64(500) + skew[r]),
			End:   time.Duration(int64(500+2000*(r+1)) + skew[r]),
		}}
	}
	// Full-mesh handshake measurements. clockErr biases only rank 0's dials:
	// a symmetric error would cancel when the merge averages the two
	// directions of a pair, and half of an asymmetric one survives.
	for r, s := range snaps {
		e := clockErr
		if r != 0 {
			e = 0
		}
		for peer := 0; peer < p; peer++ {
			if peer == r {
				continue
			}
			s.Clock = append(s.Clock, obs.ClockMeasurement{
				Peer: peer, OffsetNS: skew[peer] - skew[r] + e,
				UncNS: unc, RTTNS: 2 * unc,
			})
		}
	}
	return snaps
}

// TestMergeRecoversSkewedClocks merges snapshots whose ranks live on clocks
// up to a second apart and asserts the merged timeline is back on one clock:
// offsets recovered within the reported uncertainty, every send→recv edge
// non-negative with its true 500ns latency, and the merged traffic matrices
// exactly conserving the per-class totals.
func TestMergeRecoversSkewedClocks(t *testing.T) {
	skew := []int64{0, 250_000_000, -1_000_000_000, 40_000}
	m, err := obs.Merge(skewedWorld(t, skew, 0, 300))
	if err != nil {
		t.Fatal(err)
	}
	if m.Clock == nil || len(m.Clock.Ranks) != len(skew) {
		t.Fatalf("clock section missing or short: %+v", m.Clock)
	}
	for r, cr := range m.Clock.Ranks {
		if diff := cr.OffsetNS - skew[r]; diff > cr.UncNS || -diff > cr.UncNS {
			t.Errorf("rank %d: recovered offset %d vs true %d beyond uncertainty %d",
				r, cr.OffsetNS, skew[r], cr.UncNS)
		}
	}
	if m.Clock.MaxUncNS <= 0 {
		t.Errorf("MaxUncNS = %d, want > 0", m.Clock.MaxUncNS)
	}
	if got := m.Clock.MinEdgeNS; got != 500 {
		t.Errorf("min edge latency %d, want exact 500 (perfect measurements)", got)
	}
	if m.Clock.ClampedEdges != 0 || m.Clock.RelaxRounds != 0 {
		t.Errorf("perfect measurements needed repair: %+v", m.Clock)
	}

	// Spans came back onto one clock and are canonically sorted.
	if len(m.Spans) != len(skew) {
		t.Fatalf("%d merged spans, want %d", len(m.Spans), len(skew))
	}
	for i, sp := range m.Spans {
		if sp.Start < 0 || sp.End < sp.Start {
			t.Errorf("span %d has bad corrected interval [%v, %v]", i, sp.Start, sp.End)
		}
	}

	// Per-class conservation: every rank sent and received one 80-byte
	// ClassDiagBcast message.
	total := func(class simmpi.Class) int64 {
		if class == simmpi.ClassDiagBcast {
			return int64(80 * len(skew))
		}
		return 0
	}
	count := func(class simmpi.Class) int64 {
		if class == simmpi.ClassDiagBcast {
			return int64(len(skew))
		}
		return 0
	}
	if err := m.CheckConservation(total, total, count, count); err != nil {
		t.Errorf("conservation: %v", err)
	}
	// And a deliberately wrong counter must be caught.
	bad := func(simmpi.Class) int64 { return 1 }
	if err := m.CheckConservation(bad, total, count, count); err == nil {
		t.Error("conservation check accepted wrong sent-bytes counters")
	}

	rep := m.Report("merged")
	if rep.Clock == nil || rep.Straggler == nil || rep.Load == nil {
		t.Fatalf("merged report missing sections: clock=%v straggler=%v load=%v",
			rep.Clock != nil, rep.Straggler != nil, rep.Load != nil)
	}
	if n := len(rep.Straggler.Ranks); n != len(skew) {
		t.Fatalf("straggler section has %d ranks, want %d", n, len(skew))
	}
	// Busy times were offset-shifted per rank but each span's length is
	// skew-invariant: 2000*(r+1).
	for r, rs := range rep.Straggler.Ranks {
		if want := int64(2000 * (r + 1)); rs.BusyNS != want {
			t.Errorf("rank %d busy %d, want %d", r, rs.BusyNS, want)
		}
		if rs.WallNS != 1_000_000 {
			t.Errorf("rank %d wall %d, want 1000000", r, rs.WallNS)
		}
	}
}

// TestMergeRepairsCausality feeds the merge deliberately wrong offset
// measurements (every handshake estimate off by +20µs, claimed uncertainty
// far smaller) so the shifted timeline would have negative edges, and
// asserts the relaxation pass restores monotonicity using the edges
// themselves.
func TestMergeRepairsCausality(t *testing.T) {
	skew := []int64{0, 5_000_000, -3_000_000}
	m, err := obs.Merge(skewedWorld(t, skew, 20_000, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Clock.MinEdgeNS; got < 0 {
		t.Errorf("min edge latency %d after repair, want >= 0", got)
	}
	if m.Clock.RelaxRounds == 0 && m.Clock.ClampedEdges == 0 {
		t.Error("biased measurements produced no repair; expected relaxation or clamping")
	}
}

// TestMergeClampsNegativeCycles builds a two-rank exchange whose raw
// timestamps are mutually inconsistent (both directions appear to arrive
// before they were sent — no offset assignment can fix both), and asserts
// the per-edge clamp catches what relaxation cannot.
func TestMergeClampsNegativeCycles(t *testing.T) {
	nc := len(simmpi.Classes())
	mat := func(dst int, v int64) [][]int64 {
		rows := make([][]int64, nc)
		rows[simmpi.ClassOther] = make([]int64, 2)
		rows[simmpi.ClassOther][dst] = v
		return rows
	}
	ev := func(tns int64, tag uint64, peer int, dir obs.Dir) obs.Event {
		return obs.Event{T: time.Duration(tns), Tag: tag, Bytes: 8,
			Peer: int32(peer), Class: simmpi.ClassOther, Dir: dir}
	}
	// The two ranks measured each other's clocks as equal, which makes them
	// two processes to the merge; the timestamps contradict that both ways.
	snaps := []*obs.Snapshot{
		{P: 2, Rank: 0, RingLen: 2, Clock: []obs.ClockMeasurement{{Peer: 1}},
			SentB: mat(1, 8), SentN: mat(1, 1), RecvB: mat(1, 8), RecvN: mat(1, 1),
			Events: []obs.Event{
				ev(1000, 1, 1, obs.DirSend), // recv'd at 500 on rank 1: backward
				ev(500, 2, 1, obs.DirRecv),  // sent at 1000 by rank 1: backward
			}},
		{P: 2, Rank: 1, RingLen: 2, Clock: []obs.ClockMeasurement{{Peer: 0}},
			SentB: mat(0, 8), SentN: mat(0, 1), RecvB: mat(0, 8), RecvN: mat(0, 1),
			Events: []obs.Event{
				ev(500, 1, 0, obs.DirRecv),
				ev(1000, 2, 0, obs.DirSend),
			}},
	}
	m, err := obs.Merge(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if m.Clock.ClampedEdges == 0 {
		t.Error("negative constraint cycle was not clamped")
	}
	if got := m.Clock.MinEdgeNS; got < 0 {
		t.Errorf("min edge latency %d, want >= 0 even under clamping", got)
	}
}

// TestMergeValidation checks the structural guards and the rejection of
// events the engine cannot record: a peer outside the world or equal to the
// rank, a direction other than send or receive, and a second send or receive
// of one (tag, src, dst). Event errors name the rank and the tag.
func TestMergeValidation(t *testing.T) {
	s := func(p, rank int, evs ...obs.Event) *obs.Snapshot {
		return &obs.Snapshot{P: p, Rank: rank, Events: evs, RingLen: int64(len(evs))}
	}
	ev := func(peer int32, dir obs.Dir) obs.Event {
		return obs.Event{T: 10, Tag: 0x7, Bytes: 8, Peer: peer, Class: simmpi.ClassOther, Dir: dir}
	}
	for _, c := range []struct {
		name  string
		snaps []*obs.Snapshot
		want  string
	}{
		{"empty", nil, ""},
		{"mismatch", []*obs.Snapshot{s(2, 0), s(3, 1)}, ""},
		{"range", []*obs.Snapshot{s(2, 0), s(2, 2)}, ""},
		{"duplicate", []*obs.Snapshot{s(2, 0), s(2, 0)}, ""},
		{"missing", []*obs.Snapshot{s(2, 1)}, ""},
		{"peer past the world", []*obs.Snapshot{s(2, 0, ev(2, obs.DirSend)), s(2, 1)}, "rank 0"},
		{"negative peer", []*obs.Snapshot{s(2, 0), s(2, 1, ev(-1, obs.DirRecv))}, "rank 1"},
		{"peer is the rank", []*obs.Snapshot{s(2, 0, ev(0, obs.DirSend)), s(2, 1)}, "rank 0"},
		{"direction", []*obs.Snapshot{s(2, 0, ev(1, 2)), s(2, 1)}, "rank 0"},
		{"repeated send", []*obs.Snapshot{s(2, 0, ev(1, obs.DirSend), ev(1, obs.DirSend)), s(2, 1)}, "rank 0"},
		{"repeated receive", []*obs.Snapshot{s(2, 0, ev(1, obs.DirSend)),
			s(2, 1, ev(0, obs.DirRecv), ev(0, obs.DirRecv))}, "rank 1"},
	} {
		_, err := obs.Merge(c.snaps)
		if err == nil {
			t.Errorf("%s: merge accepted invalid snapshot set", c.name)
			continue
		}
		if c.want != "" && (!strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "0x7")) {
			t.Errorf("%s: error %q does not name %s and tag 0x7", c.name, err, c.want)
		}
	}
}

// TestMergeReportsOddSnapshots: snapshots no engine run writes, but whose
// every event and row is well-formed, are merged and reported without a
// panic or a hang.
func TestMergeReportsOddSnapshots(t *testing.T) {
	// Each rank receives before it sends what the other received: a
	// causality cycle. The critical-path walk is bounded by the event count.
	ev := func(tns int64, tag uint64, peer int32, dir obs.Dir) obs.Event {
		return obs.Event{T: time.Duration(tns), Tag: tag, Bytes: 8, Peer: peer, Class: simmpi.ClassOther, Dir: dir}
	}
	m, err := obs.Merge([]*obs.Snapshot{
		{P: 2, Rank: 0, RingLen: 2, Events: []obs.Event{ev(10, 2, 1, obs.DirRecv), ev(20, 1, 1, obs.DirSend)}},
		{P: 2, Rank: 1, RingLen: 2, Events: []obs.Event{ev(30, 1, 0, obs.DirRecv), ev(40, 2, 0, obs.DirSend)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if crit := m.Report("cycle").Critical; crit == nil || crit.Hops > 4 {
		t.Fatalf("critical path %+v, want at most one visit per event", crit)
	}

	// A byte row without its message-count row.
	rows := make([][]int64, len(simmpi.Classes()))
	rows[simmpi.ClassOther] = []int64{0, 8}
	if m, err = obs.Merge([]*obs.Snapshot{{P: 2, Rank: 0, SentB: rows}, {P: 2, Rank: 1}}); err != nil {
		t.Fatal(err)
	}
	if cr := m.Report("rows").Class(simmpi.ClassOther.String()); cr == nil || cr.TotalBytes != 8 || cr.Msgs != 0 {
		t.Fatalf("class report %+v, want 8 bytes in 0 messages", cr)
	}
}

// TestMergeClockIsDeterministic merges one skewed snapshot set many times
// and requires the same clock section every time. The set is a chain of
// messages 0 → 1 → 2 → 3 that each arrive 100ns before they left, so the
// relaxation pulls every offset down one link after another: how many rounds
// that takes depends on the order the pairs are visited in, which must not
// vary between merges.
func TestMergeClockIsDeterministic(t *testing.T) {
	const p = 4
	lines := make([][]byte, p)
	for r := range lines {
		s := &obs.Snapshot{P: p, Rank: r}
		for peer := 0; peer < p; peer++ {
			if peer != r {
				s.Clock = append(s.Clock, obs.ClockMeasurement{Peer: peer, UncNS: 50, RTTNS: 100})
			}
		}
		if r > 0 {
			s.Events = append(s.Events, obs.Event{T: 900, Tag: uint64(r), Bytes: 8,
				Peer: int32(r - 1), Class: simmpi.ClassOther, Dir: obs.DirRecv})
		}
		if r < p-1 {
			s.Events = append(s.Events, obs.Event{T: 1000, Tag: uint64(r + 1), Bytes: 8,
				Peer: int32(r + 1), Class: simmpi.ClassOther, Dir: obs.DirSend})
		}
		s.RingLen = int64(len(s.Events))
		var err error
		if lines[r], err = obs.MarshalSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	var first []byte
	for i := 0; i < 100; i++ {
		snaps := make([]*obs.Snapshot, p)
		for r, line := range lines {
			var err error
			if snaps[r], err = obs.UnmarshalSnapshot(line); err != nil {
				t.Fatal(err)
			}
		}
		m, err := obs.Merge(snaps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(m.Clock)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = got
			if m.Clock.RelaxRounds == 0 {
				t.Fatalf("the violated chain needed no relaxation: %s", got)
			}
			continue
		}
		if !bytes.Equal(got, first) {
			t.Fatalf("merge %d: clock section\n%s\ndiffers from the first merge's\n%s", i, got, first)
		}
	}
}

// TestMergeOneClock: snapshots without clock measurements were taken on one
// clock — the ranks shared a process — and the merge reads that off them:
// no clock section, no offsets, no relax/clamp edge scan (the backward edge
// below stays as recorded) and event and span times exactly as they came in.
// The structural guards still apply.
func TestMergeOneClock(t *testing.T) {
	snaps := skewedWorld(t, []int64{0, 0, 0}, 0, 0)
	// A recv stamped before its send: alignment would have clamped it.
	snaps[1].Events[0].T = 5
	for _, s := range snaps {
		s.Clock = nil
	}
	want := make([][]byte, len(snaps))
	for r, s := range snaps {
		var err error
		if want[r], err = obs.MarshalSnapshot(s); err != nil {
			t.Fatal(err)
		}
	}
	m, err := obs.Merge(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if m.Clock != nil {
		t.Fatalf("one-clock merge aligned clocks: %+v", m.Clock)
	}
	for r, s := range snaps {
		got, err := obs.MarshalSnapshot(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[r]) {
			t.Errorf("rank %d: merge changed the snapshot:\n got %s\nwant %s", r, got, want[r])
		}
	}
	var spans []obs.Span
	for _, s := range snaps {
		spans = append(spans, s.Spans...)
	}
	obs.SortSpans(spans)
	if !reflect.DeepEqual(m.Spans, spans) {
		t.Errorf("merged spans %+v, want the inputs' %+v", m.Spans, spans)
	}
	rep := m.Report("one-clock")
	if rep.Clock != nil {
		t.Error("one-clock report carries a clock section")
	}
	if js, _ := rep.JSON(); strings.Contains(string(js), `"clock"`) {
		t.Error("one-clock report JSON mentions a clock section")
	}
	if rep.Load == nil || rep.Straggler == nil || rep.Dag != nil {
		t.Errorf("sections: load=%v straggler=%v dag=%v, want load and straggler only",
			rep.Load != nil, rep.Straggler != nil, rep.Dag != nil)
	}

	// Hostile sizes are rejected exactly as on the aligned path.
	hostile := skewedWorld(t, []int64{0, 0, 0}, 0, 0)
	for _, s := range hostile {
		s.Clock = nil
	}
	hostile[2].SentB = [][]int64{{1}}
	if _, err := obs.Merge(hostile); err == nil {
		t.Error("one-clock merge accepted a snapshot with a wrong class count")
	}
	hostile[2].SentB = nil
	hostile[2].P = 1 << 40
	if _, err := obs.Merge(hostile); err == nil {
		t.Error("one-clock merge accepted a snapshot declaring a huge world")
	}
}

// TestTrimToSize bounds the wire frame: events are dropped oldest-first
// until the encoding fits, matrices stay exact, and the merged report sees
// the trim as ordinary ring drop.
func TestTrimToSize(t *testing.T) {
	col := obs.NewCollector([]int{4096, 4096}, time.Now())
	for i := 0; i < 2000; i++ {
		col.RecordSend(0, 1, simmpi.ClassOther, uint64(i), 64, 1)
	}
	snap := col.EncodeRank(0)
	const max = 4096
	data, err := snap.TrimToSize(max)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > max {
		t.Fatalf("trimmed encoding is %d bytes, want <= %d", len(data), max)
	}
	got, err := obs.UnmarshalSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.RingLen != 2000 {
		t.Errorf("RingLen %d, want 2000 (drop must stay visible)", got.RingLen)
	}
	if len(got.Events) == 0 || len(got.Events) >= 2000 {
		t.Errorf("retained %d events, want 0 < n < 2000", len(got.Events))
	}
	// Newest survive.
	if last := got.Events[len(got.Events)-1]; last.Tag != 1999 {
		t.Errorf("newest retained tag %#x, want 1999", last.Tag)
	}
	if got.SentB[simmpi.ClassOther][1] != 2000*64 {
		t.Error("traffic matrix was trimmed; must stay exact")
	}
}

// TestTailString covers the crashed-worker post-mortem rendering.
func TestTailString(t *testing.T) {
	col := obs.NewCollector([]int{8, 8}, time.Now())
	col.RecordSend(0, 1, simmpi.ClassDiagBcast, 42, 128, 1)
	col.RecordRecv(1, 0, simmpi.ClassOther, 43, 256, time.Millisecond)
	s := col.EncodeRank(0)
	out := s.TailString(10)
	for _, want := range []string{"rank 0", "send to", "recv from", "tag=0x2a", "128 B"} {
		if !strings.Contains(out, want) {
			t.Errorf("tail %q missing %q", out, want)
		}
	}
	if empty := (&obs.Snapshot{Rank: 3}).TailString(5); !strings.Contains(empty, "no events") {
		t.Errorf("empty tail = %q", empty)
	}
}

// TestStragglerReport pins the decomposition arithmetic and flagging.
func TestStragglerReport(t *testing.T) {
	// Rank 1 does 3x the busy work of its 25% prediction; rank 0 underruns.
	wall := []int64{1000, 1000, 1000, 1000}
	busy := []int64{100, 600, 100, 200}
	pred := []int64{25, 25, 25, 25}
	s := obs.NewStragglerReport(4, wall, busy, nil, pred)
	if s.Threshold != obs.DefaultStragglerThreshold || obs.DefaultStragglerThreshold != 1.5 {
		t.Errorf("threshold %v, want the constant %v = 1.5", s.Threshold, obs.DefaultStragglerThreshold)
	}
	if len(s.FlaggedRanks) != 1 || s.FlaggedRanks[0] != 1 {
		t.Fatalf("flagged %v, want [1]", s.FlaggedRanks)
	}
	r1 := s.Ranks[1]
	if !r1.Flagged || r1.Ratio != 2.4 || r1.BusyShare != 0.6 || r1.PredShare != 0.25 {
		t.Errorf("rank 1 = %+v, want flagged ratio 2.4, busy share 0.6", r1)
	}
	if s.MaxRatio != 2.4 {
		t.Errorf("max ratio %v, want 2.4", s.MaxRatio)
	}
	if idle := s.Ranks[0].IdleNS; idle != 900 {
		t.Errorf("rank 0 idle %d, want 900", idle)
	}
	// Zero-work plans must not divide by zero or flag anyone.
	z := obs.NewStragglerReport(2, wall, busy, nil, nil)
	if z.MaxRatio != 0 || len(z.FlaggedRanks) != 0 {
		t.Errorf("zero-plan report flagged: %+v", z)
	}
}
