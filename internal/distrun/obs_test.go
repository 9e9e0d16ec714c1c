package distrun_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/distrun"
	"pselinv/internal/obs"
	"pselinv/internal/simmpi"
)

// spanKey is what the two backends' timelines must agree on span for span:
// everything about a span but when it ran.
type spanKey struct {
	Rank      int
	Kind      string
	Supernode int
	Role      string
}

func spanMultiset(spans []obs.Span) map[spanKey]int {
	out := map[spanKey]int{}
	for _, sp := range spans {
		out[spanKey{sp.Rank, sp.Kind, sp.Supernode, sp.Role}]++
	}
	return out
}

// TestDistributedObservability runs an observed 4-process TCP launch and
// checks the end-to-end acceptance properties: every rank streamed a
// snapshot back, the merge conservation-checks against the workers' volume
// counters (inside MergeObs), every offset-corrected send→recv edge has
// non-negative latency, and the merged report carries the clock and
// straggler sections. The schedule-stripped merged report must match the
// checked-in golden AND be byte-identical to the in-process observed report
// of the same problem, and the two timelines must hold the same spans — the
// cross-backend equivalence the telemetry pipeline promises. Every worker
// sized its event ring from the plan it rebuilt, so each retains exactly the
// messages it moved and the merged chains are complete; an in-process run
// with rings at obs.MaxRingCap reports the same.
func TestDistributedObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 4 worker processes")
	}
	gen, spec := testProblem()
	spec.PR, spec.PC = 2, 2
	schemes := []core.Scheme{core.BinaryTree}

	// MeasureObs step by step, to keep hold of the outcome it merges.
	dir := t.TempDir()
	staged, err := distrun.StageMatrix(dir, gen)
	if err != nil {
		t.Fatal(err)
	}
	spec.MatrixFile, spec.MatrixName, spec.Geom = staged.MatrixFile, staged.MatrixName, staged.Geom
	spec.Scheme, spec.Obs = schemes[0], true
	specPath, err := distrun.WriteSpec(dir, &spec)
	if err != nil {
		t.Fatal(err)
	}
	outcome, err := distrun.Launch(specPath, &spec, &distrun.Options{Stderr: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	p := spec.P()

	if len(outcome.Snapshots) != p {
		t.Fatalf("%d snapshots, want %d", len(outcome.Snapshots), p)
	}
	for r, s := range outcome.Snapshots {
		if s == nil {
			t.Fatalf("rank %d snapshot missing", r)
		}
		if s.WallNS <= 0 || s.PlanFlops <= 0 {
			t.Errorf("rank %d snapshot lacks wall/plan data: %+v", r, s)
		}
		if len(s.Clock) != p-1 {
			t.Errorf("rank %d carries %d clock measurements, want %d", r, len(s.Clock), p-1)
		}
	}

	merged, err := outcome.MergeObs()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Clock == nil {
		t.Fatal("merge of per-process snapshots has no clock section")
	}
	if lat := merged.Clock.MinEdgeNS; lat < 0 {
		t.Errorf("min offset-corrected edge latency %d, want >= 0", lat)
	}
	if len(merged.Spans) == 0 {
		t.Error("merged run has no trace spans")
	}
	for i, sp := range merged.Spans {
		if sp.End < sp.Start {
			t.Fatalf("merged span %d ends before it starts: %+v", i, sp)
		}
	}

	rep := merged.Report(schemes[0].String())
	if rep.Clock == nil || len(rep.Clock.Ranks) != p {
		t.Fatalf("merged report clock section: %+v", rep.Clock)
	}
	if rep.Clock.Ranks[0].OffsetNS != 0 {
		t.Errorf("rank 0 offset %d, want 0 (anchor)", rep.Clock.Ranks[0].OffsetNS)
	}
	if rep.Straggler == nil || len(rep.Straggler.Ranks) != p {
		t.Fatalf("merged report straggler section: %+v", rep.Straggler)
	}
	for r, rs := range rep.Straggler.Ranks {
		if rs.WallNS <= 0 {
			t.Errorf("straggler rank %d wall %d, want > 0", r, rs.WallNS)
		}
		if rs.BusyNS <= 0 {
			t.Errorf("straggler rank %d busy %d, want > 0", r, rs.BusyNS)
		}
	}

	// Cross-backend equivalence: stripped of everything schedule-dependent,
	// the merged four-process report and the in-process observed report are
	// the same deterministic function of (matrix, grid, scheme, seed). The
	// in-process reference runs the spec's own engine — the plan its workers
	// rebuilt — once with plan-sized rings, as the library's observed run
	// does, and once with rings at obs.MaxRingCap.
	pipe, plan, eng, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	observeLocal := func(ringCap []int) *obs.Merged {
		t.Helper()
		run := eng.Rebind(pipe.LU)
		run.Obs = obs.NewCollector(ringCap, time.Now())
		res, err := run.Run(60 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		m, err := obs.Merge(res.Snapshots)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	local := observeLocal(plan.PerRankMsgs())
	localRep := local.Report(schemes[0].String())
	if localRep.Clock != nil {
		t.Error("in-process report carries a clock section")
	}
	if got, want := spanMultiset(merged.Spans), spanMultiset(local.Spans); !reflect.DeepEqual(got, want) {
		t.Errorf("the backends' span multisets (rank, kind, supernode, role) differ:\n--- tcp ---\n%v\n--- in-process ---\n%v", got, want)
	}
	rep.StripSchedule()
	localRep.StripSchedule()
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := localRep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("stripped merged report diverges from in-process report:\n--- tcp ---\n%s\n--- in-process ---\n%s", got, want)
	}

	// Plan-sized rings: each worker retained exactly its plan's message
	// count, which is what its world counted, and nothing was dropped.
	for r, want := range plan.PerRankMsgs() {
		var moved int64
		for c := range simmpi.Classes() {
			moved += outcome.Results[r].SentMsgs[c] + outcome.Results[r].RecvMsgs[c]
		}
		s := outcome.Snapshots[r]
		if moved != int64(want) || s.RingLen != int64(want) || len(s.Events) != want {
			t.Errorf("rank %d: moved %d messages, ring saw %d and retained %d; plan counts %d",
				r, moved, s.RingLen, len(s.Events), want)
		}
	}
	if !rep.ChainsOK {
		t.Error("merged chain analysis incomplete with plan-sized rings")
	}
	bound := make([]int, p)
	for r := range bound {
		bound[r] = obs.MaxRingCap
	}
	boundRep := observeLocal(bound).Report(schemes[0].String())
	boundRep.StripSchedule()
	if js, err := boundRep.JSON(); err != nil || string(js) != string(got) {
		t.Errorf("stripped merged report diverges from an in-process one with MaxRingCap rings (%v):\n--- tcp ---\n%s\n--- bound ---\n%s", err, got, js)
	}

	// The reduce-class traffic matrices must marginalize to the plan's
	// one-block-per-edge counts, so the golden cannot record anything but
	// one partial sum per tree edge.
	for class, kind := range map[string]core.OpKind{
		simmpi.ClassRowReduce.String():  core.OpRowReduce,
		simmpi.ClassDiagReduce.String(): core.OpDiagReduce,
		simmpi.ClassColReduce.String():  core.OpColReduce,
	} {
		rowSum, colSum := make([]int64, p), make([]int64, p)
		for _, cr := range rep.Classes {
			if cr.Class != class {
				continue
			}
			for src := 0; src < p; src++ {
				for dst := 0; dst < p; dst++ {
					rowSum[src] += cr.Matrix[src*p+dst]
					colSum[dst] += cr.Matrix[src*p+dst]
				}
			}
		}
		if want := plan.PerRankSent(kind); !reflect.DeepEqual(rowSum, want) {
			t.Errorf("%s matrix row sums %v, plan sends %v", class, rowSum, want)
		}
		if want := plan.PerRankRecv(kind); !reflect.DeepEqual(colSum, want) {
			t.Errorf("%s matrix column sums %v, plan receives %v", class, colSum, want)
		}
	}

	goldenPath := filepath.Join("testdata", "obs-p4.golden.json")
	if os.Getenv("PSELINV_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", goldenPath)
		return
	}
	wantGolden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (set PSELINV_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if string(got) != string(wantGolden) {
		t.Errorf("merged report drifted from golden %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, wantGolden)
	}
}
