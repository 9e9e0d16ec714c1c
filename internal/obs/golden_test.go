package obs_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pselinv"
	"pselinv/internal/core"
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

// goldenRuns runs the fixed observability problem through the library's
// observed run, once per scheme (seed 1): a 16×16 grid Laplacian inverted on
// 16 ranks — the 4×4 grid, big enough that column/row trees reach the full
// 4-participant fan-out where flat and binary chains separate, small enough
// to run in well under a second. Each report is decoded from the JSON the
// library exposes and stripped of the schedule-dependent telemetry, leaving
// a deterministic function of the plan — reproducible byte for byte on any
// machine.
func goldenRuns(opt pselinv.Options, schemes []core.Scheme) (map[core.Scheme]*obs.Report, error) {
	opt.Ordering, opt.Relax, opt.MaxWidth, opt.Timeout = pselinv.OrderNestedDissection, 2, 8, time.Minute
	sys, err := pselinv.NewSystem(pselinv.Grid2D(16, 16, 1), opt)
	if err != nil {
		return nil, err
	}
	defer sys.Release()
	reps := map[core.Scheme]*obs.Report{}
	for _, scheme := range schemes {
		res, _, orep, err := sys.ParallelSelInvObserved(16, scheme, 1)
		if err != nil {
			return nil, err
		}
		res.Release()
		js, err := orep.JSON()
		if err != nil {
			return nil, err
		}
		rep := &obs.Report{}
		if err := json.Unmarshal(js, rep); err != nil {
			return nil, err
		}
		rep.StripSchedule()
		reps[scheme] = rep
	}
	return reps, nil
}

// slug is the file-name form of a report's label, as obs.WriteArtifacts
// names its files ("Shifted Binary-Tree" → "shifted-binary-tree").
func slug(rep *obs.Report) string {
	return strings.ToLower(strings.ReplaceAll(rep.Label, " ", "-"))
}

var (
	goldenOnce sync.Once
	goldenReps map[core.Scheme]*obs.Report
	goldenErr  error
)

func goldenReport(t *testing.T, scheme core.Scheme) *obs.Report {
	t.Helper()
	goldenOnce.Do(func() {
		goldenReps, goldenErr = goldenRuns(pselinv.Options{}, core.Schemes())
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
		goldenTopoReps, goldenTopoErr = goldenRuns(pselinv.Options{CoresPerNode: 8}, topoGoldenSchemes())
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
		checkGolden(t, "report_"+slug(rep)+".golden.json", string(b))
	}
}

func TestGoldenTopoSummary(t *testing.T) {
	for _, scheme := range topoGoldenSchemes() {
		rep := goldenTopoReport(t, scheme)
		checkGolden(t, "summary_"+slug(rep)+".golden", rep.Summary())
	}
}

func TestGoldenReportJSON(t *testing.T) {
	for _, scheme := range core.Schemes() {
		rep := goldenReport(t, scheme)
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "report_"+slug(rep)+".golden.json", string(b))
	}
}

func TestGoldenTrafficMatrix(t *testing.T) {
	for _, class := range []string{"Col-Bcast", "Row-Reduce"} {
		rep := goldenReport(t, core.ShiftedBinaryTree)
		hm := rep.RenderMatrix(class)
		if hm == "" {
			t.Fatalf("no embedded matrix for %s", class)
		}
		checkGolden(t, "matrix_"+slug(rep)+"_"+class+".golden", hm)
	}
}

func TestGoldenSummary(t *testing.T) {
	for _, scheme := range core.Schemes() {
		rep := goldenReport(t, scheme)
		checkGolden(t, "summary_"+slug(rep)+".golden", rep.Summary())
	}
}
