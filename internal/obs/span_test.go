package obs

import "testing"

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("t", "s", 0, 0)
	if id != 0 {
		t.Fatalf("nil tracer Begin = %d, want 0", id)
	}
	tr.End(id, 10)
	tr.Annotate(id, "k", "v")
	if tr.Len() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer must stay empty")
	}
}

func TestSpanTree(t *testing.T) {
	tr := &Tracer{}
	req := tr.Begin("shard-0", "request", 100, 0)
	q := tr.Span("shard-0", "queue", 100, 150, req)
	svc := tr.Begin("shard-0", "service", 150, req)
	tr.Annotate(svc, "batch", "4")
	tr.End(svc, 400)
	tr.End(req, 400)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].ID != req || spans[0].Parent != 0 {
		t.Fatalf("root span wrong: %+v", spans[0])
	}
	if spans[1].ID != q || spans[1].Parent != req || spans[1].End != 150 {
		t.Fatalf("queue span wrong: %+v", spans[1])
	}
	if spans[2].Parent != req || spans[2].End != 400 {
		t.Fatalf("service span wrong: %+v", spans[2])
	}
	if len(spans[2].Args) != 1 || spans[2].Args[0] != (Arg{"batch", "4"}) {
		t.Fatalf("annotation lost: %+v", spans[2].Args)
	}

	roots := Roots(spans)
	for _, s := range spans {
		if roots[s.ID] != req {
			t.Fatalf("root of %d = %d, want %d", s.ID, roots[s.ID], req)
		}
	}
}

func TestInstantSpan(t *testing.T) {
	tr := &Tracer{}
	id := tr.Instant("shard-0", "shed", 42, 0, Arg{"reason", "queue-full"})
	s := tr.Spans()[id-1]
	if s.Start != 42 || s.End != 42 {
		t.Fatalf("instant span not zero-length: %+v", s)
	}
	if len(s.Args) != 1 || s.Args[0].Value != "queue-full" {
		t.Fatalf("instant args lost: %+v", s.Args)
	}
}
