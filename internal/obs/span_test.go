package obs_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pselinv/internal/obs"
)

// span appends a span of the given kind that starts now and lasts dur.
func span(c *obs.Collector, rank int, kind string, sn int, dur time.Duration) {
	c.Span(rank, kind, sn, "", "", time.Now(), dur)
}

func TestSpanRecordsEvent(t *testing.T) {
	epoch := time.Now()
	c := obs.NewCollector([]int{1, 1, 1, 1}, epoch)
	c.Span(3, "trsm", 7, "", "", epoch.Add(time.Millisecond), 2*time.Millisecond)
	c.Span(3, "col-bcast", 8, "root", "", epoch.Add(5*time.Millisecond), time.Millisecond)
	got := c.EncodeRank(3).Spans
	want := []obs.Span{
		{Rank: 3, Kind: "trsm", Supernode: 7, Start: time.Millisecond, End: 3 * time.Millisecond},
		{Rank: 3, Kind: "col-bcast", Supernode: 8, Role: "root", Start: 5 * time.Millisecond, End: 6 * time.Millisecond},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spans\n got %+v\nwant %+v", got, want)
	}
	if got[0].Dur() != 2*time.Millisecond {
		t.Fatalf("Dur = %v", got[0].Dur())
	}
	if n := len(c.EncodeRank(0).Spans); n != 0 {
		t.Fatalf("rank 0 holds %d spans of rank 3", n)
	}
}

// TestConcurrentSpans: every rank goroutine appends to its own timeline, so
// sixteen of them need no lock between them (`make tcp-obs` runs this under
// the race detector) and the merge sees every span.
func TestConcurrentSpans(t *testing.T) {
	const p, per = 16, 50
	c := obs.NewCollector(make([]int, p), time.Now())
	var wg sync.WaitGroup
	for rank := 0; rank < p; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				span(c, rank, "gemm", i, time.Microsecond)
			}
		}(rank)
	}
	wg.Wait()
	snaps := make([]*obs.Snapshot, p)
	for r := range snaps {
		snaps[r] = c.EncodeRank(r)
	}
	m, err := obs.Merge(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Spans) != p*per {
		t.Fatalf("lost spans: %d of %d", len(m.Spans), p*per)
	}
}

// TestSpansSortedByStart pins the canonical order: by start time, with ties
// broken on every remaining field, so any permutation of one span set sorts
// to the same sequence — what keeps Chrome traces byte-stable under coarse
// clocks.
func TestSpansSortedByStart(t *testing.T) {
	var spans []obs.Span
	for rank := 0; rank < 3; rank++ {
		for _, kind := range []string{"gemm", "trsm"} {
			for _, role := range []string{"", "leaf"} {
				for _, deps := range []string{"", "bcast(1,2)"} {
					for _, end := range []time.Duration{5, 9} {
						// Half the spans tie on Start.
						spans = append(spans, obs.Span{Rank: rank, Kind: kind, Supernode: rank % 2,
							Role: role, Deps: deps, Start: time.Duration(rank % 2), End: end})
					}
				}
			}
		}
	}
	want := append([]obs.Span(nil), spans...)
	obs.SortSpans(want)
	for i := 1; i < len(want); i++ {
		if want[i].Start < want[i-1].Start {
			t.Fatal("spans not sorted by start")
		}
		if want[i] == want[i-1] {
			t.Fatalf("test spans %d and %d are equal; the tie-break check needs distinct ones", i-1, i)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		got := append([]obs.Span(nil), spans...)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		obs.SortSpans(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: sort order depends on the input order", trial)
		}
	}
}

func TestSummarizeSpans(t *testing.T) {
	s := obs.SummarizeSpans([]obs.Span{
		{Rank: 0, Kind: "gemm", Supernode: 1, Start: 0, End: 10},
		{Rank: 1, Kind: "trsm", Supernode: 2, Start: 5, End: 10},
		{Rank: 1, Kind: "gemm", Supernode: 3, Start: 10, End: 40},
	})
	if s.Ranks != 2 || s.Wall != 40 {
		t.Fatalf("Ranks = %d, Wall = %v", s.Ranks, s.Wall)
	}
	if s.Count["gemm"] != 2 || s.Count["trsm"] != 1 || s.ByKind["gemm"] != 40 || s.BusyByRank[1] != 35 {
		t.Fatalf("aggregates wrong: %+v", s)
	}
	out := s.String()
	if !strings.Contains(out, "gemm") || !strings.Contains(out, "utilization") {
		t.Fatalf("summary rendering unexpected:\n%s", out)
	}
}

// TestSpansChromeTraceValidJSON checks the Chrome trace-event shape: a JSON
// array of complete (ph=X) records, one row per rank, microsecond times, and
// the category telling loop compute, collectives and DAG tasks apart.
func TestSpansChromeTraceValidJSON(t *testing.T) {
	var buf bytes.Buffer
	err := obs.WriteChromeTrace(&buf, []obs.Span{
		{Rank: 0, Kind: "gemm", Supernode: 4, Start: 1000, End: 3000},
		{Rank: 2, Kind: "row-reduce", Supernode: 5, Role: "forwarder", Start: 2000, End: 2500},
		{Rank: 1, Kind: "gemm", Supernode: 6, Deps: "bcast(6,7) ainv(8,7)", Start: 4000, End: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed) != 3 {
		t.Fatalf("got %d records", len(parsed))
	}
	for i, want := range []struct {
		name, cat string
		tid       float64
	}{{"gemm K=4", "compute", 0}, {"row-reduce K=5", "collective", 2}, {"gemm K=6", "task", 1}} {
		rec := parsed[i]
		if rec["ph"] != "X" || rec["name"] != want.name || rec["cat"] != want.cat || rec["tid"] != want.tid {
			t.Fatalf("record %d = %v, want %+v", i, rec, want)
		}
	}
	if parsed[0]["ts"] != 1.0 || parsed[0]["dur"] != 2.0 {
		t.Fatalf("times not in microseconds: %v", parsed[0])
	}
	if args := parsed[1]["args"].(map[string]any); args["role"] != "forwarder" || args["supernode"] != "5" {
		t.Fatalf("collective args = %v", args)
	}
	if args := parsed[2]["args"].(map[string]any); args["deps"] != "bcast(6,7) ainv(8,7)" {
		t.Fatalf("task args = %v", args)
	}
}
