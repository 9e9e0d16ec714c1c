// Launcher-side assembly of distributed observability: merge the per-rank
// telemetry snapshots an observed run streamed back, verify the merged
// traffic matrices marginalize exactly to the launcher's global conservation
// counters, and run one observed launch per scheme (MeasureObs).
package distrun

import (
	"fmt"

	"pselinv/internal/core"
	"pselinv/internal/obs"
	"pselinv/internal/simmpi"
	"pselinv/internal/sparse"
)

// MergeObs merges the outcome's per-rank snapshots into one clock-aligned
// run and cross-checks it against the workers' volume counters: for every
// class, the merged traffic-matrix row sums must equal the summed sent
// counters and the column sums the received ones. The counters travel on the
// result line and the matrices on the obs line, so agreement certifies the
// telemetry path end to end, independently of the launcher's own
// sent==received conservation check.
func (o *Outcome) MergeObs() (*obs.Merged, error) {
	if len(o.Snapshots) == 0 {
		return nil, fmt.Errorf("distrun: outcome has no snapshots (run without Spec.Obs?)")
	}
	snaps := make([]*obs.Snapshot, 0, len(o.Snapshots))
	for r, s := range o.Snapshots {
		if s == nil {
			return nil, fmt.Errorf("distrun: rank %d produced no telemetry snapshot", r)
		}
		snaps = append(snaps, s)
	}
	m, err := obs.Merge(snaps)
	if err != nil {
		return nil, err
	}
	sum := func(col func(*Result) []int64) func(simmpi.Class) int64 {
		return func(c simmpi.Class) int64 {
			var total int64
			for r := range o.Results {
				total += col(&o.Results[r])[c]
			}
			return total
		}
	}
	if err := m.CheckConservation(
		sum(func(r *Result) []int64 { return r.SentBytes }),
		sum(func(r *Result) []int64 { return r.RecvBytes }),
		sum(func(r *Result) []int64 { return r.SentMsgs }),
		sum(func(r *Result) []int64 { return r.RecvMsgs }),
	); err != nil {
		return nil, err
	}
	return m, nil
}

// MeasureObs runs one observed distributed launch per scheme and returns,
// in scheme order, each run's per-rank snapshots merged onto rank 0's clock
// — the multi-process analogue of System.ParallelSelInvObserved, whose
// report is Merged.Report(scheme.String()) likewise. Every merge is
// conservation-checked against the workers' volume counters before it is
// returned.
func MeasureObs(gen *sparse.Generated, base Spec, schemes []core.Scheme, opts *Options) ([]*obs.Merged, error) {
	base.Obs = true
	out := make([]*obs.Merged, 0, len(schemes))
	err := launchPerScheme(gen, base, schemes, opts, func(_ core.Scheme, o *Outcome) error {
		merged, err := o.MergeObs()
		if err != nil {
			return err
		}
		out = append(out, merged)
		return nil
	})
	return out, err
}
