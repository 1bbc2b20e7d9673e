package main

import "time"

// spanMetrics are the spans the harness records around the public calls
// into each layer; each becomes a "<name>_ms" per-layer metric, the mean
// time per call over the traced run.
var spanMetrics = []string{
	"layout.synth", "layout.place",
	"host.new", "host.run", "host.drain",
	"nn.place", "nn.compile", "isr.run",
	"serve.calibrate", "cluster.replay",
}

// span is one timed call. Start and End are nanoseconds since the run
// began; Parent indexes the enclosing span (-1 for none); Op is the op
// the span belongs to (-1 during setup).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out when it ends.
// While off, begin and end cost a branch.
type tracer struct {
	on    bool
	op    int
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, op: -1, t0: time.Now()}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

type spanTotal struct {
	n  int
	ns float64
}

// totals sums span durations by name over every recorded span.
func (t *tracer) totals() map[string]spanTotal { return t.totalsFrom(-1) }

// totalsFrom sums span durations by name over the spans of ops >= first.
func (t *tracer) totalsFrom(first int) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, s := range t.spans {
		if s.Op < first {
			continue
		}
		tot := out[s.Name]
		tot.n++
		tot.ns += float64(s.End - s.Start)
		out[s.Name] = tot
	}
	return out
}
