package distrun

import (
	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
	"pselinv/internal/stats"
)

// MeasureVolumes runs base once per scheme across OS processes and reduces
// the workers' counters to the per-rank MB vectors exp.PlanVolumes derives
// from the plan. Byte counting is transport-invariant, so for a given
// matrix, grid and seed the two agree exactly (the cross-backend goldens).
func MeasureVolumes(gen *sparse.Generated, base Spec, schemes []core.Scheme, opts *Options) ([]*exp.VolumeMeasurement, error) {
	out := make([]*exp.VolumeMeasurement, 0, len(schemes))
	err := launchPerScheme(gen, base, schemes, opts, func(scheme core.Scheme, o *Outcome) error {
		total := make([]float64, len(o.Results))
		for r := range total {
			total[r] = stats.MB(o.TotalSent(r))
		}
		out = append(out, &exp.VolumeMeasurement{
			Scheme:        scheme,
			ColBcastSent:  stats.BytesToMB(o.SentBytes(simmpi.ClassColBcast)),
			RowReduceRecv: stats.BytesToMB(o.RecvBytes(simmpi.ClassRowReduce)),
			TotalSent:     total,
		})
		return nil
	})
	return out, err
}
