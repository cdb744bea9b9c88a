// Package dtrace is a zero-dependency distributed tracing layer for the
// simulation service: span trees scoped to a batch → job → simulation →
// cluster-hop hierarchy, identified by a 128-bit trace ID that propagates
// across processes in a W3C traceparent-style HTTP header.
//
// The recording and export primitives are internal/telemetry's, shared with
// the simulator's prefetch lifecycle tracer:
//
//   - Off is free. Tracing rides a context; a context without a recorder
//     makes Start return a nil *Span whose every method is a nil-check no-op,
//     so untraced paths pay one context lookup and nothing else.
//   - Recording never allocates per event. Each node keeps a flight recorder
//     on a telemetry.Ring of pointer-free span records: span names go
//     through a telemetry.Interner and free-text annotations are truncated
//     into a fixed byte array, so the GC never scans the ring and the newest
//     spans are always available for live inspection (GET /debug/flight).
//   - Attribution over aggregation. Counters say how many proxies or
//     failovers happened; spans say which simulation of which batch stalled
//     where, on which node, and why — the per-event accounting the paper
//     applies to prefetches, applied to the service layer.
//
// Spans recorded on different nodes under one trace ID are stitched into a
// single tree (Stitch, TreeOf) and exported as Chrome trace_event JSON
// through telemetry.ChromeTrace (WriteChromeTrace), which Perfetto renders
// as one timeline with a track per node.
package dtrace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"
)

// TraceID identifies one distributed operation (a batch, end to end) across
// every node that touches it.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is unset (the invalid all-zero value).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset (the invalid all-zero value).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// idCounter breaks ties when the random source misbehaves; IDs must never be
// zero (the traceparent spec reserves all-zero as invalid).
var idCounter atomic.Uint64

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for {
		if _, err := rand.Read(t[:]); err != nil {
			binary.BigEndian.PutUint64(t[:8], uint64(time.Now().UnixNano()))
			binary.BigEndian.PutUint64(t[8:], idCounter.Add(1))
		}
		if !t.IsZero() {
			return t
		}
	}
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for {
		if _, err := rand.Read(s[:]); err != nil {
			binary.BigEndian.PutUint64(s[:], uint64(time.Now().UnixNano())^idCounter.Add(1))
		}
		if !s.IsZero() {
			return s
		}
	}
}

// SpanContext is the propagated identity of the current position in a trace:
// which trace this work belongs to and which span is its parent.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
	// Flags is the traceparent trace-flags byte; bit 0 (sampled) is set on
	// every context this package creates.
	Flags byte
}

// Valid reports whether the context identifies a trace (non-zero trace and
// span IDs, as the traceparent spec requires).
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Header is the HTTP header spans propagate through, after the W3C Trace
// Context specification.
const Header = "traceparent"

// traceparentLen is the exact length of a version-00 traceparent value:
// "00-" + 32 + "-" + 16 + "-" + 2.
const traceparentLen = 55

// Traceparent renders the context in W3C traceparent form:
// 00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>.
func (sc SpanContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", sc.Trace, sc.Span, sc.Flags)
}

// hexVal decodes one lowercase hex digit; ok is false for anything else
// (uppercase included — the spec requires lowercase on the wire).
func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// hexDecode fills dst from 2·len(dst) lowercase hex digits.
func hexDecode(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := hexVal(s[2*i])
		lo, ok2 := hexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

// ParseTraceparent parses a version-00 traceparent value. It is strict in
// what it accepts — exact length, lowercase hex, version 00, non-zero trace
// and span IDs — because a malformed header from an arbitrary client must
// degrade to "untraced", never to a corrupt trace identity.
func ParseTraceparent(s string) (SpanContext, error) {
	if len(s) != traceparentLen {
		return SpanContext{}, fmt.Errorf("dtrace: traceparent length %d, want %d", len(s), traceparentLen)
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, fmt.Errorf("dtrace: traceparent missing field separators")
	}
	if s[0] != '0' || s[1] != '0' {
		return SpanContext{}, fmt.Errorf("dtrace: unsupported traceparent version %q", s[:2])
	}
	var sc SpanContext
	if !hexDecode(sc.Trace[:], s[3:35]) {
		return SpanContext{}, fmt.Errorf("dtrace: bad trace-id %q", s[3:35])
	}
	if !hexDecode(sc.Span[:], s[36:52]) {
		return SpanContext{}, fmt.Errorf("dtrace: bad span-id %q", s[36:52])
	}
	var fl [1]byte
	if !hexDecode(fl[:], s[53:55]) {
		return SpanContext{}, fmt.Errorf("dtrace: bad trace-flags %q", s[53:55])
	}
	sc.Flags = fl[0]
	if sc.Trace.IsZero() {
		return SpanContext{}, fmt.Errorf("dtrace: all-zero trace-id is invalid")
	}
	if sc.Span.IsZero() {
		return SpanContext{}, fmt.Errorf("dtrace: all-zero span-id is invalid")
	}
	return sc, nil
}

// Inject writes the context's current span identity into h, so the receiving
// process parents its spans under ours. A context with no valid span identity
// writes nothing.
func Inject(ctx context.Context, h http.Header) {
	st := stateFrom(ctx)
	if !st.sc.Valid() {
		return
	}
	h.Set(Header, st.sc.Traceparent())
}

// Extract parses the traceparent header out of h; ok is false when absent or
// malformed (the caller should then treat the request as untraced).
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(Header)
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := ParseTraceparent(v)
	if err != nil {
		return SpanContext{}, false
	}
	return sc, true
}

// ctxKey keys the trace state in a context.
type ctxKey struct{}

// state is what a context carries: where spans are recorded and the current
// position in the trace.
type state struct {
	rec *Recorder
	sc  SpanContext
}

func stateFrom(ctx context.Context) state {
	st, _ := ctx.Value(ctxKey{}).(state)
	return st
}

// NewContext returns a context that records spans into rec, parented under
// sc (the zero SpanContext starts fresh traces). A nil recorder with a zero
// context returns ctx unchanged — the free "tracing off" path.
func NewContext(ctx context.Context, rec *Recorder, sc SpanContext) context.Context {
	if rec == nil && !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, state{rec: rec, sc: sc})
}

// RecorderFrom returns the context's recorder (nil when untraced).
func RecorderFrom(ctx context.Context) *Recorder { return stateFrom(ctx).rec }

// SpanContextFrom returns the context's current span identity (zero when
// untraced).
func SpanContextFrom(ctx context.Context) SpanContext { return stateFrom(ctx).sc }

// Span is one in-flight operation. It is recorded into the flight ring on
// End. The nil *Span is the disabled span: every method no-ops, so call
// sites never branch on whether tracing is on.
type Span struct {
	rec    *Recorder
	sc     SpanContext
	parent SpanID
	name   string
	start  int64 // unix nanos
	ref    string
	failed bool
}

// Start opens a child span of ctx's current position and returns a context
// positioned at the new span (children started from it nest correctly).
// Without a recorder in ctx it returns ctx unchanged and a nil span.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	st := stateFrom(ctx)
	if st.rec == nil {
		return ctx, nil
	}
	sp := st.rec.StartSpan(st.sc, name)
	return context.WithValue(ctx, ctxKey{}, state{rec: st.rec, sc: sp.sc}), sp
}

// StartSpan opens a child span of parent (a zero parent starts a new trace)
// without threading a context. Nil-safe: a nil recorder returns a nil span.
func (r *Recorder) StartSpan(parent SpanContext, name string) *Span {
	if r == nil {
		return nil
	}
	sc := SpanContext{Trace: parent.Trace, Span: NewSpanID(), Flags: parent.Flags | 1}
	if sc.Trace.IsZero() {
		sc.Trace = NewTraceID()
	}
	return &Span{
		rec:    r,
		sc:     sc,
		parent: parent.Span,
		name:   name,
		start:  time.Now().UnixNano(),
	}
}

// Context returns the span's identity, for propagation or manual parenting.
// Nil-safe (zero context).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// SetStart backdates the span (e.g. a queue-wait span recorded at pickup
// using the admission timestamp). Nil-safe.
func (s *Span) SetStart(t time.Time) {
	if s != nil {
		s.start = t.UnixNano()
	}
}

// Annotate attaches a short free-text reference (cache-key prefix, endpoint,
// workload/spec) to the span; it is truncated to the ring's fixed annotation
// capacity on record. Nil-safe.
func (s *Span) Annotate(ref string) {
	if s != nil {
		s.ref = ref
	}
}

// Fail marks the span failed and, if the annotation is empty, stores the
// error text. A nil error or nil span is a no-op.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.failed = true
	if s.ref == "" {
		s.ref = err.Error()
	}
}

// End records the span into the flight ring. Nil-safe; ending twice records
// twice (don't).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.rec.record(s.sc, s.parent, s.name, s.start, time.Now().UnixNano(), s.ref, s.failed)
}
