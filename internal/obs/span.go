package obs

import "sync"

// SpanID identifies one span inside its Tracer. IDs are assigned
// sequentially from 1; 0 means "no span" and is the parent of roots.
type SpanID int64

// Arg is one key/value annotation on a span.
type Arg struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed interval on a named track, stamped in virtual
// nanoseconds (simulator cycles at the 1 GHz command clock). Spans form
// a forest via Parent links: a serving request is a root span whose
// children are its queue and service phases; an MVM is a root span
// whose children are the per-channel executions.
type Span struct {
	ID     SpanID  `json:"id"`
	Parent SpanID  `json:"parent,omitempty"`
	Track  string  `json:"track"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ns"`
	End    float64 `json:"end_ns"`
	Args   []Arg   `json:"args,omitempty"`
}

// Tracer collects spans. The nil *Tracer is the documented "tracing
// off" state: every method no-ops and Begin returns 0.
//
// Determinism contract: spans are stamped in virtual time only, and
// their order in the trace is append order. Concurrent appenders are
// safe but would interleave nondeterministically, so every stack layer
// appends from one goroutine: the cluster router records from its one
// event loop, and the host records a run's spans after its parallel
// section has joined.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
}

// Begin opens a span at startNs and returns its ID. parent is 0 for
// roots. The span's End is initialized to its start so an unclosed
// span renders as an instant rather than an open interval.
func (t *Tracer) Begin(track, name string, startNs float64, parent SpanID) SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Track: track, Name: name,
		Start: startNs, End: startNs,
	})
	return id
}

// End closes span id at endNs. Unknown IDs (including 0) are ignored.
func (t *Tracer) End(id SpanID, endNs float64) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		t.spans[id-1].End = endNs
	}
}

// Annotate attaches a key/value argument to span id.
func (t *Tracer) Annotate(id SpanID, key, value string) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) <= len(t.spans) {
		s := &t.spans[id-1]
		s.Args = append(s.Args, Arg{Key: key, Value: value})
	}
}

// Span records a complete interval in one call and returns its ID.
func (t *Tracer) Span(track, name string, startNs, endNs float64, parent SpanID, args ...Arg) SpanID {
	if t == nil {
		return 0
	}
	id := t.Begin(track, name, startNs, parent)
	t.mu.Lock()
	s := &t.spans[id-1]
	s.End = endNs
	if len(args) > 0 {
		s.Args = append(s.Args, args...)
	}
	t.mu.Unlock()
	return id
}

// Instant records a zero-length marker span (e.g. a shed decision).
func (t *Tracer) Instant(track, name string, atNs float64, parent SpanID, args ...Arg) SpanID {
	return t.Span(track, name, atNs, atNs, parent, args...)
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns a copy of the recorded spans in append order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Roots maps every span ID to the ID of its root ancestor. Exporters
// use it to group a request's child spans under one async track.
func Roots(spans []Span) map[SpanID]SpanID {
	parent := make(map[SpanID]SpanID, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	roots := make(map[SpanID]SpanID, len(spans))
	var find func(id SpanID) SpanID
	find = func(id SpanID) SpanID {
		if r, ok := roots[id]; ok {
			return r
		}
		p := parent[id]
		var r SpanID
		if p == 0 {
			r = id
		} else {
			r = find(p)
		}
		roots[id] = r
		return r
	}
	for _, s := range spans {
		find(s.ID)
	}
	return roots
}
