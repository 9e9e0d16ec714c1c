package obs_test

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/obs"
)

// -update regenerates the golden files in testdata/ from the current
// report output: go test ./internal/obs -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update (same flow as internal/stats).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted from golden.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

var (
	goldenOnce sync.Once
	goldenReps map[core.Scheme]*obs.Report
	goldenErr  error
)

// goldenReport runs the fixed observability problem once per scheme
// (exp.ObsProblem, seed 1) and strips the
// schedule-dependent telemetry, leaving a report that is a deterministic
// function of the plan — reproducible byte for byte on any machine.
func goldenReport(t *testing.T, scheme core.Scheme) *obs.Report {
	t.Helper()
	goldenOnce.Do(func() {
		p, grid, err := exp.ObsProblem()
		if err != nil {
			goldenErr = err
			return
		}
		ms, err := exp.MeasureObs(p, grid, core.Schemes(), 1, 60*time.Second, exp.RunOpts{})
		if err != nil {
			goldenErr = err
			return
		}
		goldenReps = map[core.Scheme]*obs.Report{}
		for _, m := range ms {
			m.Report.StripSchedule()
			goldenReps[m.Scheme] = m.Report
		}
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	rep := goldenReps[scheme]
	if rep == nil {
		t.Fatalf("no golden report for %v", scheme)
	}
	return rep
}

var (
	goldenTopoOnce sync.Once
	goldenTopoReps map[core.Scheme]*obs.Report
	goldenTopoErr  error
)

// topoGoldenSchemes is the topology-aware addition, golden-tested with
// an explicit 8-ranks-per-node placement (a 2-node hierarchy on the
// 16-rank obs problem) so the reports carry the cross-node chain columns.
func topoGoldenSchemes() []core.Scheme {
	return []core.Scheme{core.TopoShiftedTree}
}

func goldenTopoReport(t *testing.T, scheme core.Scheme) *obs.Report {
	t.Helper()
	goldenTopoOnce.Do(func() {
		p, grid, err := exp.ObsProblem()
		if err != nil {
			goldenTopoErr = err
			return
		}
		ms, err := exp.MeasureObs(p, grid, topoGoldenSchemes(), 1, 60*time.Second,
			exp.RunOpts{CoresPerNode: 8})
		if err != nil {
			goldenTopoErr = err
			return
		}
		goldenTopoReps = map[core.Scheme]*obs.Report{}
		for _, m := range ms {
			m.Report.StripSchedule()
			goldenTopoReps[m.Scheme] = m.Report
		}
	})
	if goldenTopoErr != nil {
		t.Fatal(goldenTopoErr)
	}
	rep := goldenTopoReps[scheme]
	if rep == nil {
		t.Fatalf("no golden report for %v", scheme)
	}
	return rep
}

func TestGoldenTopoReportJSON(t *testing.T) {
	for _, scheme := range topoGoldenSchemes() {
		rep := goldenTopoReport(t, scheme)
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "report_"+exp.SchemeSlug(scheme)+".golden.json", string(b))
	}
}

func TestGoldenTopoSummary(t *testing.T) {
	for _, scheme := range topoGoldenSchemes() {
		rep := goldenTopoReport(t, scheme)
		checkGolden(t, "summary_"+exp.SchemeSlug(scheme)+".golden", rep.Summary())
	}
}

func TestGoldenReportJSON(t *testing.T) {
	for _, scheme := range core.Schemes() {
		rep := goldenReport(t, scheme)
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "report_"+exp.SchemeSlug(scheme)+".golden.json", string(b))
	}
}

func TestGoldenTrafficMatrix(t *testing.T) {
	for _, class := range []string{"Col-Bcast", "Row-Reduce"} {
		rep := goldenReport(t, core.ShiftedBinaryTree)
		hm := rep.RenderMatrix(class)
		if hm == "" {
			t.Fatalf("no embedded matrix for %s", class)
		}
		name := "matrix_" + exp.SchemeSlug(core.ShiftedBinaryTree) + "_" + class + ".golden"
		checkGolden(t, name, hm)
	}
}

func TestGoldenSummary(t *testing.T) {
	for _, scheme := range core.Schemes() {
		rep := goldenReport(t, scheme)
		checkGolden(t, "summary_"+exp.SchemeSlug(scheme)+".golden", rep.Summary())
	}
}
