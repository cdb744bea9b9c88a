package dtrace

import (
	"context"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Flags: 1}
	s := sc.Traceparent()
	if len(s) != traceparentLen {
		t.Fatalf("traceparent %q has length %d, want %d", s, len(s), traceparentLen)
	}
	got, err := ParseTraceparent(s)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", s, err)
	}
	if got != sc {
		t.Fatalf("round trip = %+v, want %+v", got, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, err := ParseTraceparent(valid); err != nil {
		t.Fatalf("canonical W3C example rejected: %v", err)
	}
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"short", valid[:54]},
		{"long", valid + "0"},
		{"bad version", "01" + valid[2:]},
		{"ff version", "ff" + valid[2:]},
		{"uppercase trace id", strings.ToUpper(valid)},
		{"zero trace id", "00-00000000000000000000000000000000-b7ad6b7169203331-01"},
		{"zero span id", "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01"},
		{"missing dash", strings.Replace(valid, "-", "_", 1)},
		{"dash shifted", "00-0af7651916cd43dd8448eb211c80319-cb7ad6b7169203331-01"},
		{"non-hex trace", "00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01"},
		{"non-hex flags", valid[:53] + "zz"},
		{"whitespace", " " + valid[1:]},
	}
	for _, c := range cases {
		if _, err := ParseTraceparent(c.in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted", c.name, c.in)
		}
	}
}

func TestNewIDsNonZeroAndDistinct(t *testing.T) {
	seenT := map[TraceID]bool{}
	seenS := map[SpanID]bool{}
	for i := 0; i < 100; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("generated a zero ID")
		}
		if seenT[tid] || seenS[sid] {
			t.Fatal("generated a duplicate ID within 100 draws")
		}
		seenT[tid], seenS[sid] = true, true
	}
}

func TestInjectExtract(t *testing.T) {
	rec := NewRecorder("n", 16)
	ctx, sp := Start(NewContext(context.Background(), rec, SpanContext{}), "op")
	h := http.Header{}
	Inject(ctx, h)
	got, ok := Extract(h)
	if !ok {
		t.Fatalf("Extract failed on injected header %q", h.Get(Header))
	}
	if got != sp.Context() {
		t.Fatalf("extracted %+v, want %+v", got, sp.Context())
	}

	// An untraced context injects nothing.
	h2 := http.Header{}
	Inject(context.Background(), h2)
	if v := h2.Get(Header); v != "" {
		t.Fatalf("untraced Inject wrote %q", v)
	}
	if _, ok := Extract(http.Header{}); ok {
		t.Fatal("Extract succeeded on empty header")
	}
	// Malformed headers degrade to untraced.
	h3 := http.Header{}
	h3.Set(Header, "garbage")
	if _, ok := Extract(h3); ok {
		t.Fatal("Extract accepted garbage")
	}
}

func TestDisabledPathIsFree(t *testing.T) {
	ctx := context.Background()
	if got := NewContext(ctx, nil, SpanContext{}); got != ctx {
		t.Fatal("NewContext with no recorder and no span must return ctx unchanged")
	}
	ctx2, sp := Start(ctx, "op")
	if sp != nil {
		t.Fatal("Start without a recorder must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("Start without a recorder must return ctx unchanged")
	}
	// Every span method must be a nil-receiver no-op.
	sp.Annotate("x")
	sp.SetStart(time.Now())
	sp.Fail(context.Canceled)
	sp.End()
	if sp.Context().Valid() {
		t.Fatal("nil span must report a zero context")
	}
	var rec *Recorder
	if s := rec.StartSpan(SpanContext{}, "op"); s != nil {
		t.Fatal("nil recorder must start nil spans")
	}
	if rec.Dropped() != 0 || rec.Snapshot(Filter{}) != nil {
		t.Fatal("nil recorder accessors must be zero")
	}
}

func TestSpanNesting(t *testing.T) {
	rec := NewRecorder("n", 16)
	ctx := NewContext(context.Background(), rec, SpanContext{})
	ctx, parent := Start(ctx, "parent")
	_, child := Start(ctx, "child")
	if child.Context().Trace != parent.Context().Trace {
		t.Fatal("child must inherit the parent's trace ID")
	}
	child.End()
	parent.End()

	spans := rec.Snapshot(Filter{})
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	byName := map[string]SpanData{}
	for _, d := range spans {
		byName[d.Name] = d
	}
	if byName["child"].ParentID != byName["parent"].SpanID {
		t.Fatalf("child parent = %q, want %q", byName["child"].ParentID, byName["parent"].SpanID)
	}
	if byName["parent"].ParentID != "" {
		t.Fatalf("root span has parent %q", byName["parent"].ParentID)
	}
	if byName["parent"].Node != "n" {
		t.Fatalf("span node = %q, want n", byName["parent"].Node)
	}
}

func TestStartSpanExplicitParent(t *testing.T) {
	rec := NewRecorder("n", 16)
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Flags: 1}
	sp := rec.StartSpan(remote, "server.op")
	if sp.Context().Trace != remote.Trace {
		t.Fatal("explicit parent must pin the trace ID")
	}
	sp.Fail(context.DeadlineExceeded)
	sp.End()
	got := rec.Snapshot(Filter{Trace: remote.Trace.String()})
	if len(got) != 1 {
		t.Fatalf("snapshot by trace = %d spans, want 1", len(got))
	}
	if got[0].ParentID != remote.Span.String() {
		t.Fatalf("parent = %q, want %q", got[0].ParentID, remote.Span.String())
	}
	if !got[0].Error || got[0].Ref != context.DeadlineExceeded.Error() {
		t.Fatalf("failed span exported as %+v", got[0])
	}
}
