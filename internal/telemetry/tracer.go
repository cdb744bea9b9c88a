package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// EventKind is a prefetch lifecycle transition.
type EventKind uint8

// Lifecycle transitions. A prefetched block's life is
// issue→fill→(first-use | evict); drops never enter the cache.
const (
	// EvFill is an issued prefetch filling a cache level: Issue is the issue
	// cycle, At the fill-completion cycle.
	EvFill EventKind = iota + 1
	// EvUse is the first demand hit on a prefetched line (Late marks hits
	// that merged with the still-in-flight fill).
	EvUse
	// EvEvict is a prefetched line evicted without ever being demanded.
	EvEvict
	// EvDrop is a prefetch dropped at the MSHR demand reserve.
	EvDrop
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvFill:
		return "fill"
	case EvUse:
		return "use"
	case EvEvict:
		return "evict"
	case EvDrop:
		return "drop"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one prefetch lifecycle record with the page-size and
// boundary-crossing attribution the paper's analysis turns on.
type Event struct {
	Kind  EventKind `json:"-"`
	Level string    `json:"level"` // cache name ("L2", "LLC", ...)
	Block uint64    `json:"block"`
	PC    uint64    `json:"pc,omitempty"`
	// Issue is the prefetch issue cycle (fill events); At the cycle of the
	// event itself (fill completion, use, or evict).
	Issue int64 `json:"issue,omitempty"`
	At    int64 `json:"at"`
	// PageSize is the residing page's size as propagated by PPM ("4KB",
	// "2MB", "1GB"); CrossedPage marks prefetches whose target lies outside
	// the trigger's 4KB page — the accesses page-size awareness unlocks.
	PageSize    string `json:"page_size,omitempty"`
	CrossedPage bool   `json:"crossed_4k,omitempty"`
	Late        bool   `json:"late,omitempty"`
	PrefID      uint8  `json:"pref_id,omitempty"`
	Core        uint8  `json:"core"`
}

// jsonEvent adds the kind as a string for the JSONL export.
type jsonEvent struct {
	Kind string `json:"kind"`
	Event
}

// record is an Event packed pointer-free for the ring: the Level and
// PageSize strings are interned into the tracer's name table and stored as
// indices.
type record struct {
	kind     EventKind
	level    uint8 // Tracer.names index
	pageSize uint8 // Tracer.names index ("" when unknown)
	flags    uint8
	prefID   uint8
	core     uint8
	block    uint64
	pc       uint64
	issue    int64
	at       int64
}

const (
	flagCrossed = 1 << iota
	flagLate
)

// Tracer records lifecycle events into a Ring: recording is a pointer-free
// struct store, no allocation, so tracing large runs keeps the newest Cap
// events instead of growing without bound. A nil Tracer drops events for
// free, which is the telemetry-off fast path.
//
// Tracer is not safe for concurrent Record calls; each simulation owns its
// tracer and exports after the run.
type Tracer struct {
	ring  Ring[record]
	names Interner // Event.Level and Event.PageSize values
}

// DefaultTraceCap is the default event-ring capacity (~3MB of records).
const DefaultTraceCap = 1 << 16

// NewTracer creates a tracer keeping the newest capacity events
// (DefaultTraceCap if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{ring: NewRing[record](capacity)}
}

// Record appends an event, overwriting the oldest once the ring is full.
// Nil-safe: a nil tracer drops the event.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	r := record{
		kind:     e.Kind,
		level:    t.names.Index(e.Level),
		pageSize: t.names.Index(e.PageSize),
		prefID:   e.PrefID,
		core:     e.Core,
		block:    e.Block,
		pc:       e.PC,
		issue:    e.Issue,
		at:       e.At,
	}
	if e.CrossedPage {
		r.flags |= flagCrossed
	}
	if e.Late {
		r.flags |= flagLate
	}
	t.ring.Add(r)
}

// Total returns the lifetime number of records (including overwritten
// ones). Nil-safe.
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Total()
}

// Len returns how many events the ring retains. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.ring.Len()
}

// Dropped returns how many events were overwritten by ring wrap-around.
// Nil-safe.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.ring.Dropped()
}

// Events returns the retained events oldest-first. Nil-safe.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	recs := t.ring.Copy()
	out := make([]Event, len(recs))
	for i, r := range recs {
		out[i] = Event{
			Kind:        r.kind,
			Level:       t.names.Name(r.level),
			Block:       r.block,
			PC:          r.pc,
			Issue:       r.issue,
			At:          r.at,
			PageSize:    t.names.Name(r.pageSize),
			CrossedPage: r.flags&flagCrossed != 0,
			Late:        r.flags&flagLate != 0,
			PrefID:      r.prefID,
			Core:        r.core,
		}
	}
	return out
}

// WriteJSONL writes the retained events as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range t.Events() {
		if err := enc.Encode(jsonEvent{Kind: e.Kind.String(), Event: e}); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeTrace writes the retained events in Chrome trace_event JSON.
// Each core is a process ("core N") and each cache level a thread within
// it. Fill events become complete slices spanning issue→fill; uses, evicts,
// and drops become instants. Timestamps are simulated cycles presented as
// microseconds.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	var c ChromeTrace
	for _, e := range t.Events() {
		core := "core " + strconv.Itoa(int(e.Core))
		args := map[string]any{
			"block":     fmt.Sprintf("%#x", e.Block),
			"page_size": e.PageSize,
		}
		if e.CrossedPage {
			args["crossed_4k"] = true
		}
		switch {
		case e.Kind == EvFill:
			c.Slice(core, e.Level, "prefetch", e.Issue, e.At-e.Issue, args)
		case e.Kind == EvUse && e.Late:
			c.Instant(core, e.Level, "use (late)", e.At, args)
		default:
			c.Instant(core, e.Level, e.Kind.String(), e.At, args)
		}
	}
	return c.Encode(w)
}
