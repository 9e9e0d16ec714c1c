package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer boundary. Name is "<layer>.<what>"; Parent is an index into the
// tracer's span list (-1 for a root); Op numbers the traced op the span
// belongs to (-1 for set-up work outside any op).
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int
	Op     int
}

// tracer keeps spans in memory; files are written once, at exit. It is used
// from one goroutine: the traced pass runs single-client.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// do times f as a child of the innermost open span. A nil tracer just runs
// f, so the same code path serves traced and untraced ops.
func (t *tracer) do(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id := t.begin(name)
	f()
	t.end(id)
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// child records a span whose duration was reported by the program (a server
// phase, a worker's parallel section) rather than timed here. It is laid at
// the end of the free part of its parent's interval so children never overlap.
func (t *tracer) child(parent int, name string, d time.Duration) {
	p := &t.spans[parent]
	end := p.End
	for i := parent + 1; i < len(t.spans); i++ {
		if t.spans[i].Parent == parent && t.spans[i].Start < end {
			end = t.spans[i].Start
		}
	}
	start := end - d
	if start < p.Start {
		start = p.Start
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: p.Op})
}

// root runs f as traced op number op under a root span.
func (t *tracer) root(name string, op int, f func()) {
	t.op = op
	t.do(name, f)
	t.op = -1
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

type spanStat struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	SelfMS float64 `json:"self_ms_per_op"`
}

type layerStat struct {
	SelfMS float64 `json:"self_ms_per_op"`
	Share  float64 `json:"share_of_op"`
}

type layerTable struct {
	Ops        int                  `json:"traced_ops"`
	OpMS       float64              `json:"traced_op_ms"`
	LayerSumMS float64              `json:"layer_self_sum_ms"`
	Spans      map[string]spanStat  `json:"spans"`
	Layers     map[string]layerStat `json:"layers"`
}

// table computes self time (a span minus the part its children cover) per
// span name and per layer over the traced ops. Set-up spans (Op < 0)
// contribute to the per-name means but not to the op shares. The root span's
// own self time is the benchmark's glue and is booked to layer "driver".
func (t *tracer) table() layerTable {
	covered := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	tab := layerTable{Spans: map[string]spanStat{}, Layers: map[string]layerStat{}}
	total := map[string]time.Duration{}
	self := map[string]time.Duration{}
	count := map[string]int{}
	var opWall time.Duration
	for i, s := range t.spans {
		d := s.End - s.Start
		total[s.Name] += d
		count[s.Name]++
		if s.Op < 0 {
			continue
		}
		if s.Parent < 0 {
			tab.Ops++
			opWall += d
		}
		sd := d - covered[i]
		if sd < 0 {
			sd = 0
		}
		self[s.Name] += sd
	}
	ops := float64(max(tab.Ops, 1))
	tab.OpMS = ms(opWall) / ops
	for name, n := range count {
		tab.Spans[name] = spanStat{Count: n, MeanMS: ms(total[name]) / float64(n), SelfMS: ms(self[name]) / ops}
		if self[name] == 0 {
			continue
		}
		l := layerOf(name)
		if strings.HasPrefix(name, "op.") {
			l = "driver"
		}
		ls := tab.Layers[l]
		ls.SelfMS += ms(self[name]) / ops
		tab.Layers[l] = ls
	}
	for l, ls := range tab.Layers {
		if tab.OpMS > 0 {
			ls.Share = ls.SelfMS / tab.OpMS
		}
		tab.Layers[l] = ls
		if l != "driver" {
			tab.LayerSumMS += ls.SelfMS
		}
	}
	return tab
}

// last returns the index of the most recent span of one name (-1 if none).
func (t *tracer) last(name string) int {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return i
		}
	}
	return -1
}

// meanMS is the mean wall time of the spans of one name (0 if none ran).
func (t *tracer) meanMS(name string) float64 {
	var d time.Duration
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(d) / float64(n)
}

// writeChrome writes the spans as Chrome trace events ("X" complete events,
// one track per nesting depth), loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	depth := make([]int, len(t.spans))
	evs := make([]ev, 0, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			depth[i] = depth[s.Parent] + 1
		}
		evs = append(evs, ev{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: depth[i],
			Args: map[string]any{"op": s.Op, "parent": s.Parent},
		})
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	return writeJSON(path, map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "otherData": meta})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
