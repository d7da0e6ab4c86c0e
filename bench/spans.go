//go:build linux

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later issue). Spans of one sweep
// share Sweep; Parent is the ID of the span that caused this one, 0 for a
// root. Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Sweep  string `json:"sweep"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: begin returns 0 and end(0) does nothing, so call sites
// need no branches.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(parent int, sweep, name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Sweep: sweep, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took; the duration
// is measured the same way with tracing on or off.
func (r *recorder) timed(parent int, sweep, name string, fn func()) time.Duration {
	id := r.begin(parent, sweep, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time in seconds: its duration minus
// the part of that interval its child spans cover (children of parallel
// workers overlap, so the cover is a union, not a sum).
func selfTimes(spans []span) map[int]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// selfByName sums self time per span name, the "where the time goes" table.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

func writeSpans(path string, byWorkload map[string][]span) error {
	raw, err := json.Marshal(byWorkload)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
