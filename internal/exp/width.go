// Scheme × balancer sweep: the BENCH_width.json artifact behind
// `cmd/scaling -width`, the evidence each tree scheme and balancer in the
// production enums is judged by. For every (P, scheme, balancer) cell it
// builds the plan on the hierarchical topology, reads the exact count
// metrics off it — the same quantities BENCHMARK.json gates, plus the
// nnz imbalance and the collectives' inter-node traffic — and simulates the
// run over a few placement seeds for the makespan. See EXPERIMENTS.md
// "Comparing tree schemes and balancers".
package exp

import (
	"encoding/json"
	"os"
	"slices"

	"pselinv/internal/core"
	"pselinv/internal/netsim"
	"pselinv/internal/stats"
)

// WidthCell is one (P, scheme, balancer) cell of the sweep. Everything but
// the makespan is exact: a function of the plan alone, which the engine
// moves byte for byte.
type WidthCell struct {
	P        int    `json:"p"`
	Scheme   string `json:"scheme"`
	Balancer string `json:"balancer"`
	// Nodes is the number of physical nodes the P ranks occupy.
	Nodes int `json:"nodes"`
	// Bytes every rank sends, summed and at the heaviest sender; the
	// heaviest Col-Bcast sender and Row-Reduce receiver (Tables I–II).
	TotalMB        float64 `json:"total_mb"`
	MaxSentMB      float64 `json:"max_sent_mb"`
	ColBcastMaxMB  float64 `json:"colbcast_max_sent_mb"`
	RowReduceMaxMB float64 `json:"rowreduce_max_recv_mb"`
	// Msgs counts inter-rank messages, each once.
	Msgs int `json:"msgs"`
	// Max/mean per-rank second-pass flops and factor nnz (1.0 = balanced).
	FlopImbalance float64 `json:"flop_imbalance"`
	NNZImbalance  float64 `json:"nnz_imbalance"`
	// Cross-node tree edges of the collectives and the bytes they carry.
	CrossEdges int     `json:"cross_edges"`
	CrossMB    float64 `json:"cross_mb"`
	// Simulated makespan over the placement seeds.
	MakespanMean float64 `json:"makespan_mean_s"`
	MakespanStd  float64 `json:"makespan_std_s"`
}

// WidthSweep is the full artifact.
type WidthSweep struct {
	Matrix       string       `json:"matrix"`
	CoresPerNode int          `json:"cores_per_node"`
	Ps           []int        `json:"ps"`
	Seeds        []uint64     `json:"seeds"`
	Cells        []*WidthCell `json:"cells"`
}

// MeasureWidth runs every core.AllSchemes() × core.AllBalancers() cell at
// each P on the plan MeasureScaling simulates (simPlan), replayed for each
// placement seed.
func MeasureWidth(p *Pipeline, ps []int, seeds []uint64, params netsim.Params) *WidthSweep {
	sweep := &WidthSweep{
		Matrix:       p.Gen.Name,
		CoresPerNode: params.CoresPerNode,
		Ps:           ps,
		Seeds:        seeds,
	}
	for _, procs := range ps {
		for _, scheme := range core.AllSchemes() {
			for _, bal := range core.AllBalancers() {
				plan := simPlan(p, procs, core.PlanConfig{Balancer: bal}, scheme, params)
				cell := widthCounts(plan)
				cell.P, cell.Scheme, cell.Balancer = procs, scheme.Slug(), bal.Slug()
				pt := replay(plan, seeds, params)
				cell.MakespanMean, cell.MakespanStd = pt.Mean, pt.Std
				sweep.Cells = append(sweep.Cells, cell)
			}
		}
	}
	return sweep
}

// widthCounts reads a cell's exact columns off the plan.
func widthCounts(plan *core.Plan) *WidthCell {
	sent := plan.PerRankTotalSent()
	var total int64
	for _, b := range sent {
		total += b
	}
	msgs := 0 // PerRankMsgs counts every message at both ends
	for _, n := range plan.PerRankMsgs() {
		msgs += n
	}
	flopImb, nnzImb := core.LoadImbalance(plan.RankLoads())
	cross := plan.CrossNodeStats()
	return &WidthCell{
		Nodes:          plan.Topo.Node(plan.Grid.Size()-1) + 1, // ranks pack consecutively
		TotalMB:        stats.MB(total),
		MaxSentMB:      stats.MB(slices.Max(sent)),
		ColBcastMaxMB:  stats.MB(slices.Max(plan.PerRankSent(core.OpColBcast))),
		RowReduceMaxMB: stats.MB(slices.Max(plan.PerRankRecv(core.OpRowReduce))),
		Msgs:           msgs / 2,
		FlopImbalance:  flopImb,
		NNZImbalance:   nnzImb,
		CrossEdges:     cross.Edges,
		CrossMB:        stats.MB(cross.Bytes),
	}
}

// WriteWidth writes the artifact as deterministic indented JSON.
func WriteWidth(path string, sweep *WidthSweep) error {
	data, err := json.MarshalIndent(sweep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
