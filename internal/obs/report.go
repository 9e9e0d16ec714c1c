// Report assembly and rendering: the deterministic JSON document exported
// by `-obs` runs and /debug/obs, plus ASCII traffic-matrix rendering for
// terminals and the run summary used by the cmds.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pselinv/internal/simmpi"
	"pselinv/internal/stats"
)

// MatrixLimit is the largest world size for which the report embeds full
// P×P link matrices; beyond it only the per-rank marginals are kept (the
// JSON stays readable and a 2116-rank run does not emit a 40 MB report).
const MatrixLimit = 64

// ClassReport is the per-communication-class slice of a report.
type ClassReport struct {
	Class      string  `json:"class"`
	TotalBytes int64   `json:"total_bytes"`
	Msgs       int64   `json:"msgs"`
	Imbalance  float64 `json:"imbalance"` // max/mean per-rank sent bytes
	SentBytes  []int64 `json:"sent_bytes"`
	RecvBytes  []int64 `json:"recv_bytes"`
	// Matrix is the P×P row-major src→dst byte matrix (MsgMatrix the
	// message counts); both are omitted above MatrixLimit ranks.
	Matrix    []int64 `json:"matrix,omitempty"`
	MsgMatrix []int64 `json:"msg_matrix,omitempty"`
}

// RankReport carries the per-rank telemetry that has no per-class
// structure: queue pressure and blocked-receive wait.
type RankReport struct {
	Rank          int   `json:"rank"`
	SentBytes     int64 `json:"sent_bytes"`
	RecvBytes     int64 `json:"recv_bytes"`
	QueueHWM      int   `json:"queue_hwm"`
	RecvWaitNS    int64 `json:"recv_wait_ns"`
	RecvWaitMaxNS int64 `json:"recv_wait_max_ns"`
	Recvs         int64 `json:"recvs"`
	Events        int64 `json:"events"`
	Dropped       int64 `json:"dropped"`
}

// Report is the full observability document of one run. Every field except
// the ones zeroed by StripSchedule is a deterministic function of the plan
// and seed, so reports golden-test byte-for-byte.
type Report struct {
	P     int    `json:"p"`
	Label string `json:"label,omitempty"`
	// CoresPerNode is the rank→node packing the chain analysis used for
	// its cross-node-hop columns; omitted (with those columns) when the
	// collector was never given a topology.
	CoresPerNode  int     `json:"cores_per_node,omitempty"`
	TotalBytes    int64   `json:"total_bytes"`
	TotalMsgs     int64   `json:"total_msgs"`
	DroppedEvents int64   `json:"dropped_events"`
	ChainsOK      bool    `json:"chains_complete"`
	VolImbalance  float64 `json:"volume_imbalance"` // max/mean per-rank sent bytes
	WaitImbalance float64 `json:"wait_imbalance"`   // max/mean per-rank blocked-recv wait

	// Dag, when present, holds the per-rank task-DAG scheduler statistics
	// of a run with DAG execution enabled: omitted entirely for sequential
	// runs, so reports from non-DAG runs (including the goldens) stay
	// byte-identical.
	Dag []*DagRankStats `json:"dag,omitempty"`

	// Load, when present, holds the per-rank planned-work distribution of
	// the supernode→process map (flops, factor nonzeros, measured busy
	// wall) with its imbalance factors.
	Load *LoadReport `json:"load,omitempty"`

	// Clock, when present, records the per-process clock-offset estimation
	// of a merged multi-process report: the correction applied to each
	// rank's timestamps, its worst-case uncertainty, and how the
	// monotonicity repair went (see Merge). In-process reports — one
	// clock — omit it. Entirely measured, so StripSchedule drops it.
	Clock *ClockReport `json:"clock,omitempty"`

	// Straggler, when present, decomposes each rank's wall time into
	// busy/recv-wait/idle and diffs the measured busy share
	// against the balancer's predicted flop share, flagging ranks whose
	// measured/predicted ratio exceeds the threshold. Built by
	// Merged.Report, next to the load section.
	Straggler *StragglerReport `json:"straggler,omitempty"`

	Classes     []*ClassReport     `json:"classes"`
	Ranks       []*RankReport      `json:"ranks"`
	Collectives []*ChainSummary    `json:"collectives"`
	TopChains   []*CollectiveChain `json:"top_chains,omitempty"`
	Critical    *CriticalPath      `json:"critical_path,omitempty"`
}

// DagRankStats is one rank's task-DAG scheduler counters, filled in by the
// engine's scheduler.
type DagRankStats struct {
	Rank int `json:"rank"`
	// Tasks is the number of DAG tasks executed; it is plan-determined
	// (independent of scheduling).
	Tasks int `json:"tasks"`
	// Offloaded counts tasks that ran on a pool worker; the rest ran
	// inline on the rank goroutine when the pool had no free slot.
	Offloaded int `json:"offloaded"`
	// MaxWidth is the peak number of simultaneously runnable or running
	// tasks — the exploitable intra-rank parallelism the DAG exposed.
	MaxWidth int `json:"max_width"`
	// MaxInflight is the peak number of this rank's tasks concurrently
	// out on pool workers.
	MaxInflight int `json:"max_inflight"`
	// BusyNS sums task execution time wherever each task ran; WallNS is
	// the rank body's wall-clock time. Occupancy is their ratio, the mean
	// number of this rank's tasks executing at any instant (0 when the
	// rank did no timed work): above 1 means compute genuinely overlapped
	// the rank's communication loop.
	BusyNS    int64   `json:"busy_ns"`
	WallNS    int64   `json:"wall_ns"`
	Occupancy float64 `json:"occupancy"`
}

// RankLoad is one rank's share of the planned work: the estimated
// selected-inversion flops and factor nonzeros charged to the blocks it
// owns, plus the measured busy wall time (zeroed by StripSchedule — it is
// scheduling, not plan).
type RankLoad struct {
	Rank   int   `json:"rank"`
	Flops  int64 `json:"flops"`
	NNZ    int64 `json:"nnz"`
	BusyNS int64 `json:"busy_ns,omitempty"`
}

// LoadReport is the per-rank load section of a balanced run: which
// supernode→process mapping produced it, the per-rank work distribution,
// and the max/mean imbalance factors against the uniform reference
// (max · P / total; 1.0 is perfect balance).
type LoadReport struct {
	Balancer      string      `json:"balancer"`
	Ranks         []*RankLoad `json:"ranks"`
	TotalFlops    int64       `json:"total_flops"`
	TotalNNZ      int64       `json:"total_nnz"`
	FlopImbalance float64     `json:"flop_imbalance"`
	NNZImbalance  float64     `json:"nnz_imbalance"`
}

// Report assembles the run's report from the snapshots, the one place it is
// done: the traffic matrices, per-rank telemetry and chain analysis, the
// clock section of an aligned merge, the scheduler statistics of a DAG run,
// the per-rank load section (the plan charges each snapshot carries, next to
// the busy time its spans sum to) and the straggler section diffing that
// measured busy against the balancer's prediction. Sections that do not
// apply are omitted, so reports of plain runs stay byte-identical. label
// tags the report, typically with the tree scheme.
func (m *Merged) Report(label string) *Report {
	p := len(m.byRank)
	rep := &Report{P: p, Label: label, CoresPerNode: m.byRank[0].CoresPerNode, Clock: m.Clock}

	for _, class := range simmpi.Classes() {
		cr := &ClassReport{
			Class:     class.String(),
			SentBytes: make([]int64, p),
			RecvBytes: make([]int64, p),
		}
		if p <= MatrixLimit {
			cr.Matrix = make([]int64, p*p)
			cr.MsgMatrix = make([]int64, p*p)
		}
		for r, s := range m.byRank {
			for dst, b := range row(s.SentB, class) {
				cr.SentBytes[r] += b
				cr.TotalBytes += b
				if cr.Matrix != nil {
					cr.Matrix[r*p+dst] += b
				}
			}
			for dst, n := range row(s.SentN, class) {
				cr.Msgs += n
				if cr.MsgMatrix != nil {
					cr.MsgMatrix[r*p+dst] += n
				}
			}
			cr.RecvBytes[r] = sum(row(s.RecvB, class))
		}
		if cr.TotalBytes == 0 && cr.Msgs == 0 {
			continue
		}
		cr.Imbalance = imbalance(cr.SentBytes)
		rep.TotalBytes += cr.TotalBytes
		rep.TotalMsgs += cr.Msgs
		rep.Classes = append(rep.Classes, cr)
	}

	sent, waits := make([]int64, p), make([]int64, p)
	wall, busy := make([]int64, p), make([]int64, p)
	flops, nnz := make([]int64, p), make([]int64, p)
	load := &LoadReport{Balancer: m.byRank[0].Balancer, Ranks: make([]*RankLoad, p)}
	for r, s := range m.byRank {
		rr := &RankReport{
			Rank:          r,
			QueueHWM:      int(s.QueueHWM),
			RecvWaitNS:    s.RecvWaitNS,
			RecvWaitMaxNS: s.RecvWaitMaxNS,
			Recvs:         s.RecvWaitCount,
			Events:        s.RingLen,
		}
		if dropped := s.RingLen - int64(len(s.Events)); dropped > 0 {
			rr.Dropped = dropped
			rep.DroppedEvents += dropped
		}
		for _, cr := range rep.Classes {
			rr.SentBytes += cr.SentBytes[r]
			rr.RecvBytes += cr.RecvBytes[r]
		}
		sent[r], waits[r] = rr.SentBytes, s.RecvWaitNS
		rep.Ranks = append(rep.Ranks, rr)

		if s.Dag != nil {
			rep.Dag = append(rep.Dag, s.Dag)
		}
		for _, sp := range s.Spans {
			busy[r] += int64(sp.Dur())
		}
		wall[r], flops[r], nnz[r] = s.WallNS, s.PlanFlops, s.PlanNNZ
		load.Ranks[r] = &RankLoad{Rank: r, Flops: flops[r], NNZ: nnz[r], BusyNS: busy[r]}
		load.TotalFlops += flops[r]
		load.TotalNNZ += nnz[r]
	}
	rep.VolImbalance = imbalance(sent)
	rep.WaitImbalance = imbalance(waits)
	load.FlopImbalance = imbalance(flops)
	load.NNZImbalance = imbalance(nnz)
	rep.Load = load
	rep.Straggler = NewStragglerReport(p, wall, busy, waits, flops)

	chains, crit, complete := m.analyze()
	rep.ChainsOK = complete
	rep.Critical = crit
	rep.Collectives = summarizeChains(chains)
	rep.TopChains = topChains(chains, 16)
	return rep
}

// row is one class's row of a snapshot's traffic matrix (nil when unused);
// Merge has checked that a non-nil rows holds every class.
func row(rows [][]int64, class simmpi.Class) []int64 {
	if rows == nil {
		return nil
	}
	return rows[class]
}

func sum(xs []int64) (t int64) {
	for _, x := range xs {
		t += x
	}
	return t
}

// imbalance is max/mean — 1.0 is perfect balance, the paper's Figures 5–7
// quantity.
func imbalance(xs []int64) float64 {
	var sum, max int64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(xs)) / float64(sum)
}

// logRef is the paper's binary-tree chain bound 2·⌈log₂ p⌉.
func logRef(p int) int {
	if p <= 1 {
		return 0
	}
	return 2 * bits.Len(uint(p-1))
}

// summarizeChains folds per-collective chains into per-class aggregates,
// sorted by class name.
func summarizeChains(chains []*CollectiveChain) []*ChainSummary {
	byClass := map[string]*ChainSummary{}
	for _, cc := range chains {
		cs := byClass[cc.Class]
		if cs == nil {
			cs = &ChainSummary{Class: cc.Class, Kind: cc.Kind}
			byClass[cc.Class] = cs
		}
		cs.Count++
		cs.ChainSum += cc.Chain
		if cc.Chain > cs.ChainMax {
			cs.ChainMax = cc.Chain
		}
		if cc.Depth > cs.DepthMax {
			cs.DepthMax = cc.Depth
		}
		if cc.Ranks > cs.MaxRanks {
			cs.MaxRanks = cc.Ranks
		}
		cs.CrossSum += cc.CrossHops
		if cc.CrossHops > cs.CrossMax {
			cs.CrossMax = cc.CrossHops
		}
		if cc.Nodes > cs.NodesMax {
			cs.NodesMax = cc.Nodes
		}
	}
	out := make([]*ChainSummary, 0, len(byClass))
	for _, cs := range byClass {
		cs.ChainMean = math.Round(100*float64(cs.ChainSum)/float64(cs.Count)) / 100
		cs.FlatRef = cs.MaxRanks - 1
		cs.LogRef = logRef(cs.MaxRanks)
		if cs.NodesMax > 0 {
			cs.CrossRef = cs.NodesMax - 1
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// topChains returns the n longest measured broadcast chains (broadcast
// chains are deterministic replays of the plan; reduce chains depend on
// arrival order and live only in the aggregates), with a total tie order
// so the report stays byte-stable.
func topChains(chains []*CollectiveChain, n int) []*CollectiveChain {
	var bc []*CollectiveChain
	for _, cc := range chains {
		if cc.Kind == kindBcast.String() {
			bc = append(bc, cc)
		}
	}
	sort.Slice(bc, func(i, j int) bool {
		a, b := bc[i], bc[j]
		if a.Chain != b.Chain {
			return a.Chain > b.Chain
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.K != b.K {
			return a.K < b.K
		}
		return a.Blk < b.Blk
	})
	if len(bc) > n {
		bc = bc[:n]
	}
	return bc
}

// BcastChainSum sums the measured serialized chains over the broadcast
// classes — the scalar the flat-vs-tree comparison ranks schemes by.
func (r *Report) BcastChainSum() int {
	total := 0
	for _, cs := range r.Collectives {
		if cs.Kind == kindBcast.String() {
			total += cs.ChainSum
		}
	}
	return total
}

// Class returns the report slice for the named class, or nil.
func (r *Report) Class(name string) *ClassReport {
	for _, cr := range r.Classes {
		if cr.Class == name {
			return cr
		}
	}
	return nil
}

// MaxQueueHWM returns the largest mailbox queue-depth high-watermark over
// all ranks.
func (r *Report) MaxQueueHWM() int {
	m := 0
	for _, rr := range r.Ranks {
		if rr.QueueHWM > m {
			m = rr.QueueHWM
		}
	}
	return m
}

// TotalRecvWait sums the blocked-receive wait over all ranks.
func (r *Report) TotalRecvWait() time.Duration {
	var t time.Duration
	for _, rr := range r.Ranks {
		t += time.Duration(rr.RecvWaitNS)
	}
	return t
}

// StripSchedule zeroes every field that depends on goroutine scheduling
// rather than on the plan: wait durations, queue watermarks, the
// wall-clock critical path and the reduce-class chain measurements (reduce
// chains depend on arrival order). What remains is a deterministic
// function of (pattern, grid, scheme, seed), suitable for golden files.
func (r *Report) StripSchedule() {
	r.WaitImbalance = 0
	r.Critical = nil
	r.Clock = nil
	for _, rr := range r.Ranks {
		rr.QueueHWM = 0
		rr.RecvWaitNS = 0
		rr.RecvWaitMaxNS = 0
	}
	for _, cs := range r.Collectives {
		if cs.Kind == kindReduce.String() {
			cs.ChainMax = 0
			cs.ChainSum = 0
			cs.ChainMean = 0
		}
	}
	for _, d := range r.Dag {
		// Task counts are plan-determined; everything else is timing or
		// pool-contention dependent.
		d.Offloaded = 0
		d.MaxWidth = 0
		d.MaxInflight = 0
		d.BusyNS = 0
		d.WallNS = 0
		d.Occupancy = 0
	}
	if r.Load != nil {
		// Flop/nnz tallies and their imbalance factors are functions of
		// the plan; busy wall is measured.
		for _, rl := range r.Load.Ranks {
			rl.BusyNS = 0
		}
	}
	if r.Straggler != nil {
		// The predicted shares are plan-determined; everything measured
		// (wall decomposition, busy shares, ratios, flags) is scheduling.
		r.Straggler.MaxRatio = 0
		r.Straggler.FlaggedRanks = nil
		for _, rs := range r.Straggler.Ranks {
			rs.WallNS = 0
			rs.BusyNS = 0
			rs.RecvWaitNS = 0
			rs.IdleNS = 0
			rs.BusyShare = 0
			rs.Ratio = 0
			rs.Flagged = false
		}
	}
}

// WriteJSON writes the report as indented JSON. Struct fields encode in
// declaration order and the only map (critical-path class counts) has its
// keys sorted by encoding/json, so equal reports are byte-identical.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// JSON returns the indented JSON encoding.
func (r *Report) JSON() ([]byte, error) {
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

// WriteArtifacts writes an observed run's two files into dir (created if
// needed): the report as obs-<slug>.json and the timeline as a Chrome trace,
// trace-<slug>.json, where slug is the report's label lower-cased with
// spaces as dashes ("Shifted Binary-Tree" → "shifted-binary-tree"). It
// returns the two paths.
func WriteArtifacts(dir string, rep *Report, spans []Span) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	slug := strings.ToLower(strings.ReplaceAll(rep.Label, " ", "-"))
	paths := []string{filepath.Join(dir, "obs-"+slug+".json"), filepath.Join(dir, "trace-"+slug+".json")}
	for i, write := range []func(io.Writer) error{
		rep.WriteJSON,
		func(w io.Writer) error { return WriteChromeTrace(w, spans) },
	} {
		f, err := os.Create(paths[i])
		if err != nil {
			return nil, err
		}
		if err := write(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	return paths, nil
}

// RenderMatrix renders the class's P×P traffic matrix as an ASCII heat map
// (rows = source rank, columns = destination), reusing the stats shading so
// it reads like the paper's Figure 5/7 maps. Returns "" when the class has
// no embedded matrix.
func (r *Report) RenderMatrix(class string) string {
	cr := r.Class(class)
	if cr == nil || cr.Matrix == nil {
		return ""
	}
	vals := make([]float64, len(cr.Matrix))
	for i, b := range cr.Matrix {
		vals[i] = float64(b)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s traffic matrix (src rows x dst cols, %.3f MB total)\n",
		class, stats.MB(cr.TotalBytes))
	b.WriteString(stats.NewHeatMap(r.P, r.P, vals).Render())
	return b.String()
}

// Summary renders the report as a compact terminal table: totals,
// imbalance, and the measured-vs-analytic chain comparison per class.
func (r *Report) Summary() string {
	var b strings.Builder
	label := r.Label
	if label == "" {
		label = "run"
	}
	fmt.Fprintf(&b, "obs[%s]: P=%d, %.3f MB in %d msgs, volume imbalance %.2f, wait imbalance %.2f\n",
		label, r.P, stats.MB(r.TotalBytes), r.TotalMsgs, r.VolImbalance, r.WaitImbalance)
	if r.DroppedEvents > 0 {
		fmt.Fprintf(&b, "  WARNING: %d events dropped (ring overflow); chain analysis skipped\n", r.DroppedEvents)
	}
	if r.Load != nil {
		fmt.Fprintf(&b, "  load[%s]: flop imbalance %.2f, nnz imbalance %.2f over %d ranks\n",
			r.Load.Balancer, r.Load.FlopImbalance, r.Load.NNZImbalance, len(r.Load.Ranks))
	}
	if r.Clock != nil {
		fmt.Fprintf(&b, "  clock: max offset uncertainty %v, min edge latency %v",
			time.Duration(r.Clock.MaxUncNS).Round(time.Microsecond),
			time.Duration(r.Clock.MinEdgeNS).Round(time.Microsecond))
		if r.Clock.RelaxRounds > 0 || r.Clock.ClampedEdges > 0 {
			fmt.Fprintf(&b, " (causality repair: %d relax rounds, %d edges clamped)",
				r.Clock.RelaxRounds, r.Clock.ClampedEdges)
		}
		b.WriteString("\n")
	}
	if r.Straggler != nil {
		fmt.Fprintf(&b, "  straggler: max busy/predicted ratio %.2f (threshold %.2f)",
			r.Straggler.MaxRatio, r.Straggler.Threshold)
		if len(r.Straggler.FlaggedRanks) > 0 {
			fmt.Fprintf(&b, "; FLAGGED ranks %v", r.Straggler.FlaggedRanks)
		}
		b.WriteString("\n")
		for _, rs := range r.Straggler.Ranks {
			mark := " "
			if rs.Flagged {
				mark = "*"
			}
			fmt.Fprintf(&b, "  %s rank %-3d wall %-10v busy %-10v send-wait %-10v recv-wait %-10v idle %-10v pred %.3f meas %.3f\n",
				mark, rs.Rank,
				time.Duration(rs.WallNS).Round(time.Microsecond),
				time.Duration(rs.BusyNS).Round(time.Microsecond),
				time.Duration(rs.SendWaitNS).Round(time.Microsecond),
				time.Duration(rs.RecvWaitNS).Round(time.Microsecond),
				time.Duration(rs.IdleNS).Round(time.Microsecond),
				rs.PredShare, rs.BusyShare)
		}
	}
	if len(r.Dag) > 0 {
		tasks, offloaded, maxWidth := 0, 0, 0
		var occ float64
		for _, d := range r.Dag {
			tasks += d.Tasks
			offloaded += d.Offloaded
			if d.MaxWidth > maxWidth {
				maxWidth = d.MaxWidth
			}
			occ += d.Occupancy
		}
		fmt.Fprintf(&b, "  task-DAG: %d tasks (%d offloaded to pool workers), peak width %d, mean occupancy %.2f\n",
			tasks, offloaded, maxWidth, occ/float64(len(r.Dag)))
	}
	if len(r.Collectives) > 0 {
		if r.CoresPerNode > 0 {
			fmt.Fprintf(&b, "  %-12s %-7s %6s %6s %9s %9s %8s %8s %8s %8s %8s\n",
				"class", "kind", "count", "maxP", "chainMax", "chainMean", "flatRef", "logRef", "crossMax", "crossSum", "crossRef")
			for _, cs := range r.Collectives {
				fmt.Fprintf(&b, "  %-12s %-7s %6d %6d %9d %9.2f %8d %8d %8d %8d %8d\n",
					cs.Class, cs.Kind, cs.Count, cs.MaxRanks, cs.ChainMax, cs.ChainMean, cs.FlatRef, cs.LogRef,
					cs.CrossMax, cs.CrossSum, cs.CrossRef)
			}
		} else {
			fmt.Fprintf(&b, "  %-12s %-7s %6s %6s %9s %9s %8s %8s\n",
				"class", "kind", "count", "maxP", "chainMax", "chainMean", "flatRef", "logRef")
			for _, cs := range r.Collectives {
				fmt.Fprintf(&b, "  %-12s %-7s %6d %6d %9d %9.2f %8d %8d\n",
					cs.Class, cs.Kind, cs.Count, cs.MaxRanks, cs.ChainMax, cs.ChainMean, cs.FlatRef, cs.LogRef)
			}
		}
	}
	if r.Critical != nil {
		fmt.Fprintf(&b, "  critical path: %d hops (%d comm) over %v\n",
			r.Critical.Hops, r.Critical.CommHops,
			time.Duration(r.Critical.EndNS-r.Critical.StartNS).Round(time.Microsecond))
	}
	return b.String()
}
