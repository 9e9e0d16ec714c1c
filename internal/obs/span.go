// Spans are the per-rank execution timeline of a run — which rank computed
// or communicated what, when, for which supernode — rendered as a
// utilization summary or as a Chrome trace-event JSON file (load in
// chrome://tracing or Perfetto). The paper's asynchronous formulation lives
// or dies by how well supernodes overlap; this is how that is looked at.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Span is one completed span on a rank's timeline, on the collector's clock
// like the rank's events. The JSON tags are the wire format used when a
// distributed worker ships its spans back to the launcher inside a snapshot;
// they are short because a run produces thousands of spans.
type Span struct {
	Rank      int    `json:"r"`
	Kind      string `json:"k"` // e.g. "trsm", "gemm", "diag-inverse", "col-bcast"
	Supernode int    `json:"sn"`
	// Role distinguishes collective-communication spans from compute spans:
	// it is "" for compute and the rank's tree position ("root",
	// "forwarder", "leaf") for collective spans, so one Chrome trace merges
	// both and still lets Perfetto queries split them apart.
	Role string `json:"ro,omitempty"`
	// Deps annotates a task-DAG span with the operands the task waited on
	// (e.g. "bcast(5,2) ainv(7,2)"). It is "" for rank-loop spans; task
	// spans carry it so the Chrome trace shows each task's dependency
	// edges and Perfetto can split scheduled compute from loop compute.
	Deps  string        `json:"d,omitempty"`
	Start time.Duration `json:"s"` // since the collector's epoch
	End   time.Duration `json:"e"`
}

// Dur returns the span length.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Span appends a completed span to rank's timeline: it began at start and
// ran for dur. Like the rank's event ring the timeline is written by the
// owning rank's goroutine only (a DAG task's span is appended when the rank
// applies the task's completion, wherever the task ran), so it needs no lock.
func (c *Collector) Span(rank int, kind string, supernode int, role, deps string, start time.Time, dur time.Duration) {
	ro := &c.ranks[rank]
	s := start.Sub(c.start)
	ro.spans = append(ro.spans, Span{Rank: rank, Kind: kind, Supernode: supernode,
		Role: role, Deps: deps, Start: s, End: s + dur})
}

// SortSpans sorts a span slice into a total deterministic order: by start
// time, with ties broken on every remaining field. Equal timestamps are
// common under coarse clocks and the race scheduler, and an unstable tie
// order would make golden traces flake byte-for-byte.
func SortSpans(out []Span) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Supernode != b.Supernode {
			return a.Supernode < b.Supernode
		}
		if a.Role != b.Role {
			return a.Role < b.Role
		}
		return a.Deps < b.Deps
	})
}

// SpanSummary aggregates a timeline per rank and per kind.
type SpanSummary struct {
	Ranks      int
	Wall       time.Duration // last span end
	BusyByRank map[int]time.Duration
	ByKind     map[string]time.Duration
	Count      map[string]int
}

// SummarizeSpans computes utilization statistics from a timeline.
func SummarizeSpans(spans []Span) SpanSummary {
	s := SpanSummary{
		BusyByRank: map[int]time.Duration{},
		ByKind:     map[string]time.Duration{},
		Count:      map[string]int{},
	}
	for _, e := range spans {
		s.BusyByRank[e.Rank] += e.Dur()
		s.ByKind[e.Kind] += e.Dur()
		s.Count[e.Kind]++
		if e.End > s.Wall {
			s.Wall = e.End
		}
	}
	s.Ranks = len(s.BusyByRank)
	return s
}

// String renders the summary as a compact report.
func (s SpanSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d ranks, wall %v\n", s.Ranks, s.Wall.Round(time.Microsecond))
	kinds := make([]string, 0, len(s.ByKind))
	for k := range s.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-14s %6d spans %12v total\n", k, s.Count[k], s.ByKind[k].Round(time.Microsecond))
	}
	if s.Ranks > 0 && s.Wall > 0 {
		var busy time.Duration
		for _, d := range s.BusyByRank {
			busy += d
		}
		util := float64(busy) / (float64(s.Wall) * float64(s.Ranks))
		fmt.Fprintf(&b, "  mean utilization %.1f%%\n", 100*util)
	}
	return b.String()
}

// chromeEvent is the Chrome trace-event "complete" (ph=X) record.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace emits a timeline (in SortSpans order, as Merged.Spans is)
// in the Chrome trace-event JSON-array format: one row per rank (tid), spans
// named by kind and supernode.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	out := make([]chromeEvent, 0, len(spans))
	for _, e := range spans {
		args := map[string]string{"supernode": fmt.Sprint(e.Supernode)}
		cat := "compute"
		if e.Role != "" {
			args["role"] = e.Role
			cat = "collective"
		}
		if e.Deps != "" {
			args["deps"] = e.Deps
			cat = "task"
		}
		out = append(out, chromeEvent{
			Name: fmt.Sprintf("%s K=%d", e.Kind, e.Supernode),
			Cat:  cat,
			Ph:   "X",
			TS:   float64(e.Start.Nanoseconds()) / 1e3,
			Dur:  float64(e.Dur().Nanoseconds()) / 1e3,
			PID:  0,
			TID:  e.Rank,
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(out)
}
