package obs_test

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/obs"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/sparse"
)

// -record re-records testdata/recorded_run.jsonl from a fresh observed run:
// go test ./internal/obs -run MergeRecordedRun -record -update
var record = flag.Bool("record", false, "re-record the observed run's snapshots")

var recordedRun = filepath.Join("testdata", "recorded_run.jsonl")

// recordedSnapshots decodes the snapshots of one observed run kept in
// testdata, one JSON line per rank: an 8×8 grid Laplacian on a 2×2 process
// grid, shifted binary trees, seed 1, run sequentially (the fuzz seed's
// problem). Freezing the snapshots makes every measured field of the report
// — waits, queue watermarks, reduce arrival chains, the critical path — a
// fixed input, so the unstripped report golden-tests byte for byte.
func recordedSnapshots(t *testing.T) []*obs.Snapshot {
	t.Helper()
	if *record {
		p, err := exp.Prepare(sparse.Grid2D(8, 8, 1), 2, 8)
		if err != nil {
			t.Fatal(err)
		}
		plan := core.NewPlan(p.An.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1)
		eng := pselinv.NewEngine(plan, p.LU)
		eng.Obs = obs.NewCollector(plan.PerRankMsgs(), time.Now())
		res, err := eng.Run(60 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
		var buf bytes.Buffer
		for _, s := range res.Snapshots {
			line, err := obs.MarshalSnapshot(s)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := os.WriteFile(recordedRun, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(recordedRun)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*obs.Snapshot
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, len(data))
	for sc.Scan() {
		s, err := obs.UnmarshalSnapshot(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return snaps
}

// TestMergeRecordedRun pins the whole report of the recorded run, including
// what StripSchedule drops from the other goldens: the reduce-class chains
// and the critical path (hops, comm hops, per-class counts, start and end).
func TestMergeRecordedRun(t *testing.T) {
	m, err := obs.Merge(recordedSnapshots(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Report("recorded run")
	if rep.Critical == nil || !rep.ChainsOK {
		t.Fatalf("recorded run lost its chain analysis: complete=%v critical=%v", rep.ChainsOK, rep.Critical)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_recorded-run.golden.json", string(b))
}
