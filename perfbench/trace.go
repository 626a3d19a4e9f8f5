package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// The layer is the part of Name before the first dot ("rrset.generate"
// belongs to rrset). Spans of one operation share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0 for a root span
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a span that has started and not yet ended.
type open struct {
	t     *tracer
	id    int64
	start time.Time
	span  span
}

// begin starts a span under parent (nil for a root span).
func (t *tracer) begin(name string, parent *open, req int64) *open {
	if t == nil {
		return nil
	}
	var pid int64
	if parent != nil {
		pid = parent.id
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{}) // reserve the ID
	t.mu.Unlock()
	now := time.Now()
	return &open{t: t, id: id, start: now, span: span{ID: id, Parent: pid, Req: req, Name: name, Start: int64(now.Sub(t.origin))}}
}

// end closes the span and records it.
func (o *open) end() {
	if o == nil {
		return
	}
	o.span.End = int64(time.Since(o.t.origin))
	o.t.mu.Lock()
	o.t.spans[o.id-1] = o.span
	o.t.mu.Unlock()
}

// traceReport is what the traced run derives from its spans.
type traceReport struct {
	// SelfMs is each layer's self time: its spans' durations minus the
	// parts their child spans cover.
	SelfMs map[string]float64
	// Coverage is the share of the measured wall time the root spans
	// account for.
	Coverage float64
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// report computes self times and the coverage of [from, to).
func (t *tracer) report(from, to time.Time) traceReport {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	return reportSpans(spans, int64(from.Sub(t.origin)), int64(to.Sub(t.origin)))
}

func reportSpans(spans []span, from, to int64) traceReport {
	children := make(map[int64][]span)
	var roots [][2]int64
	for _, s := range spans {
		if s.ID == 0 || s.End < from || s.Start > to {
			continue
		}
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		if s.ID == 0 || s.End < from || s.Start > to {
			continue
		}
		var iv [][2]int64
		for _, c := range children[s.ID] {
			iv = append(iv, [2]int64{c.Start, c.End})
		}
		d := (s.End - s.Start) - covered(iv)
		self[layerOf(s.Name)] += float64(d) / 1e6
	}
	rep := traceReport{SelfMs: self}
	if to > from {
		clipped := make([][2]int64, 0, len(roots))
		for _, r := range roots {
			clipped = append(clipped, [2]int64{max(r[0], from), min(r[1], to)})
		}
		rep.Coverage = float64(covered(clipped)) / float64(to-from)
	}
	return rep
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	started := false
	for _, v := range iv {
		switch {
		case !started || v[0] > end:
			total += v[1] - v[0]
			end = v[1]
			started = true
		case v[1] > end:
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
