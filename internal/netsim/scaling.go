package netsim

import "math"

// FactorizationReference models the SuperLU_DIST factorization wall time
// used as the reference line in Figure 8: perfectly parallel flops at 70%
// efficiency plus a per-supernode panel-broadcast latency term that grows
// with log P. It is a model, not a simulation — the paper likewise treats
// factorization as an external preprocessing step.
func FactorizationReference(factorFlops int64, numSupernodes, p int, params Params) float64 {
	if p <= 0 {
		panic("netsim: non-positive processor count")
	}
	compute := float64(factorFlops) / (0.7 * params.FlopRate * float64(p))
	comm := float64(numSupernodes) * math.Log2(float64(p)+1) * 6 * params.InterLatency
	return compute + comm
}
