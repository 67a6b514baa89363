package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary. Parent indexes the span
// that caused it (-1 for a root); Group is the pass, round or request id
// the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer's epoch
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"`
	Group  int    `json:"group"`
}

// tracer keeps spans in memory and writes them when the run ends. A
// disabled tracer records nothing and costs one branch per call.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off or
// the caller is untraced).
func (t *tracer) begin(on bool, name string, parent, group int) int {
	if !t.on || !on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch).Nanoseconds(), Parent: parent, Group: group})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if i >= 0 {
		t.spans[i].End = time.Since(t.epoch).Nanoseconds()
	}
}

// add records a span measured elsewhere (a request timed on another
// goroutine), given its start and end.
func (t *tracer) add(name string, parent, group int, start, end time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(),
		End: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Group: group})
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part its children cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"totalMs"`
	SelfMs  float64 `json:"selfMs"`
}

func (t *tracer) summary() []spanSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
		}
		d := s.End - s.Start
		a.Count++
		a.TotalMs += float64(d) / 1e6
		a.SelfMs += float64(d-child[i]) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, a := range by {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
