package obs_test

import (
	"testing"
	"time"

	"pselinv/internal/core"
	"pselinv/internal/exp"
	"pselinv/internal/obs"
	"pselinv/internal/procgrid"
	"pselinv/internal/pselinv"
	"pselinv/internal/sparse"
)

// FuzzUnmarshalSnapshot drives the launcher's path for a worker's obs line —
// decode, bound the frame, merge with the other ranks' snapshots — with
// arbitrary bytes in place of one rank's line. The launcher parses these
// from worker stdout, so nothing in them may panic it or make it allocate
// by a size the line merely declares; a rejected line is an error. Seeded
// with the four snapshot lines of a real P=4 DAG run (spans and scheduler
// statistics included).
func FuzzUnmarshalSnapshot(f *testing.F) {
	p, err := exp.Prepare(sparse.Grid2D(8, 8, 1), 2, 8)
	if err != nil {
		f.Fatal(err)
	}
	plan := core.NewPlan(p.An.BP, procgrid.New(2, 2), core.ShiftedBinaryTree, 1)
	eng := pselinv.NewEngine(plan, p.LU)
	eng.Obs, eng.DAG = obs.NewCollector(plan.PerRankMsgs(), time.Now()), true
	res, err := eng.Run(60 * time.Second)
	if err != nil {
		f.Fatal(err)
	}
	res.Release()
	lines := make([][]byte, plan.Grid.Size())
	for r := range lines {
		if res.Snapshots[r].Dag == nil || len(res.Snapshots[r].Spans) == 0 {
			f.Fatalf("rank %d seed snapshot lacks dag stats or spans", r)
		}
		if lines[r], err = obs.MarshalSnapshot(res.Snapshots[r]); err != nil {
			f.Fatal(err)
		}
		f.Add(lines[r])
	}
	f.Add([]byte(`{"p":1000000000000,"rank":0}`))
	f.Add([]byte(`{"p":-1,"rank":0}`))
	f.Add([]byte(`{"p":4,"rank":1,"sent_b":[[1],[],null,[1,2,3,4,5]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := obs.UnmarshalSnapshot(data)
		if err != nil {
			return
		}
		trimmed, err := s.TrimToSize(len(data) / 2)
		if err != nil {
			t.Fatalf("TrimToSize of a decoded snapshot: %v", err)
		}
		if _, err := obs.UnmarshalSnapshot(trimmed); err != nil {
			t.Fatalf("trimmed snapshot does not decode: %v", err)
		}
		// Merge shifts its inputs in place: decode the peers afresh.
		snaps := []*obs.Snapshot{s}
		for r, line := range lines {
			if r != s.Rank {
				peer, err := obs.UnmarshalSnapshot(line)
				if err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, peer)
			}
		}
		if m, err := obs.Merge(snaps); err == nil {
			if rep := m.Report("fuzz"); rep.P != len(snaps) || len(rep.Ranks) != len(snaps) {
				t.Fatalf("merged %d snapshots into a report of %d ranks", len(snaps), len(rep.Ranks))
			}
		}
	})
}
