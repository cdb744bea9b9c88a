package dtrace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// refCap bounds a span's free-text annotation in the ring. Annotations are
// short by construction (key prefixes, endpoint hosts, workload/spec names);
// longer ones are truncated, never allocated around.
const refCap = 48

// spanRecord is one completed span packed pointer-free for the
// telemetry.Ring: the span name is an index into the recorder's name table
// and the annotation lives in a fixed byte array.
type spanRecord struct {
	traceHi, traceLo uint64
	span, parent     uint64
	start, end       int64 // unix nanos
	name             uint8 // Recorder.names index
	flags            uint8
	refLen           uint8
	_                uint8
	ref              [refCap]byte
}

const recFlagError = 1 << 0

// DefaultCap is the default flight-ring capacity (~400KB of records): deep
// enough to hold every span of a large multi-node batch, bounded so a
// long-lived daemon's recorder never grows.
const DefaultCap = 1 << 12

// Recorder is a node's span flight recorder: a telemetry.Ring keeping the
// newest Cap spans behind a mutex, safe for concurrent recording from every
// request path. A nil *Recorder drops everything for free.
type Recorder struct {
	node string

	mu    sync.Mutex
	ring  telemetry.Ring[spanRecord]
	names telemetry.Interner // span names (fixed call-site vocabulary)
}

// NewRecorder builds a flight recorder identified as node (the identity
// every exported span carries), keeping the newest capacity spans
// (DefaultCap if capacity <= 0).
func NewRecorder(node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{node: node, ring: telemetry.NewRing[spanRecord](capacity)}
}

// record appends one completed span, overwriting the oldest once the ring is
// full. Nil-safe.
func (r *Recorder) record(sc SpanContext, parent SpanID, name string, start, end int64, ref string, failed bool) {
	if r == nil {
		return
	}
	rec := spanRecord{
		traceHi: binary.BigEndian.Uint64(sc.Trace[:8]),
		traceLo: binary.BigEndian.Uint64(sc.Trace[8:]),
		span:    binary.BigEndian.Uint64(sc.Span[:]),
		parent:  binary.BigEndian.Uint64(parent[:]),
		start:   start,
		end:     end,
	}
	if failed {
		rec.flags |= recFlagError
	}
	n := copy(rec.ref[:], ref)
	rec.refLen = uint8(n)

	r.mu.Lock()
	rec.name = r.names.Index(name)
	r.ring.Add(rec)
	r.mu.Unlock()
}

// Dropped returns how many spans ring wrap-around has overwritten. Nil-safe.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// SpanData is the exported (wire/JSON) form of a recorded span. IDs are hex
// strings — the form they propagate in — and times are unix nanoseconds.
type SpanData struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	Node     string `json:"node,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Ref      string `json:"ref,omitempty"`
	Error    bool   `json:"error,omitempty"`
}

// Filter selects spans out of a snapshot. The zero Filter selects all.
type Filter struct {
	// Trace keeps only spans of this trace ID (32 hex digits); empty keeps
	// every trace.
	Trace string
	// ErrorsOnly keeps only failed spans.
	ErrorsOnly bool
	// Limit keeps the newest N spans after the other filters; 0 is unlimited.
	Limit int
}

// data unpacks rec into its exported form; node and names are the recording
// Recorder's identity and name table.
func (rec *spanRecord) data(node string, names *telemetry.Interner) SpanData {
	var t TraceID
	binary.BigEndian.PutUint64(t[:8], rec.traceHi)
	binary.BigEndian.PutUint64(t[8:], rec.traceLo)
	var sp, par SpanID
	binary.BigEndian.PutUint64(sp[:], rec.span)
	binary.BigEndian.PutUint64(par[:], rec.parent)
	d := SpanData{
		TraceID: t.String(),
		SpanID:  sp.String(),
		Name:    names.Name(rec.name),
		Node:    node,
		StartNS: rec.start,
		EndNS:   rec.end,
		Ref:     string(rec.ref[:rec.refLen]),
		Error:   rec.flags&recFlagError != 0,
	}
	if !par.IsZero() {
		d.ParentID = par.String()
	}
	return d
}

// Snapshot returns the retained spans oldest-first, filtered. Nil-safe
// (empty snapshot).
func (r *Recorder) Snapshot(f Filter) []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	recs := r.ring.Copy()
	names := r.names
	r.mu.Unlock()

	out := make([]SpanData, 0, len(recs))
	for i := range recs {
		d := recs[i].data(r.node, &names)
		if f.Trace != "" && d.TraceID != f.Trace {
			continue
		}
		if f.ErrorsOnly && !d.Error {
			continue
		}
		out = append(out, d)
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// WriteJSONL writes the filtered snapshot as one JSON object per line — the
// GET /debug/flight format.
func (r *Recorder) WriteJSONL(w io.Writer, f Filter) error {
	enc := json.NewEncoder(w)
	for _, d := range r.Snapshot(f) {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a WriteJSONL stream back into spans (the client side of
// /debug/flight). Blank lines are skipped; a malformed line is an error.
func ReadJSONL(rd io.Reader) ([]SpanData, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var out []SpanData
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var d SpanData
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
