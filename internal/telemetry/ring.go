package telemetry

// Ring keeps the newest cap values added to it in a preallocated slice: Add
// appends until the ring is full and overwrites the oldest value after that,
// so it never allocates. T should be pointer-free (names interned through an
// Interner, text in fixed arrays) so the GC never scans the ring and
// allocating it is a plain memclr. A Ring is not safe for concurrent use;
// callers that share one hold their own lock.
type Ring[T any] struct {
	buf   []T
	head  int    // oldest value, the next overwritten, once full
	total uint64 // lifetime Adds
}

// NewRing returns a ring keeping the newest capacity values; capacity must
// be positive.
func NewRing[T any](capacity int) Ring[T] {
	return Ring[T]{buf: make([]T, 0, capacity)}
}

// Add appends v, overwriting the oldest value once the ring is full.
func (r *Ring[T]) Add(v T) {
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// Len returns how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns the lifetime number of Adds, overwritten values included.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many values wrap-around has overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// Copy returns the held values oldest-first in a new slice.
func (r *Ring[T]) Copy() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Interner maps a small fixed vocabulary (cache levels, page sizes, span
// names) to uint8 indices, so ring records carry a byte instead of a string.
// The table only grows, so a copy of an Interner taken under the owner's lock
// stays valid to read after the lock is released. The zero value is empty
// and ready to use.
type Interner struct {
	names []string
}

// Index returns s's index, appending s on first sight. The vocabularies are
// a handful to a few dozen call-site constants, so the linear scan's first
// comparisons are almost always identical string headers. Index 255 absorbs
// every value past the 255th; Name reports it as "?".
func (in *Interner) Index(s string) uint8 {
	for i, v := range in.names {
		if v == s {
			return uint8(i)
		}
	}
	if len(in.names) >= 255 {
		return 255
	}
	in.names = append(in.names, s)
	return uint8(len(in.names) - 1)
}

// Name returns the string Index mapped to i, or "?" for the overflow index.
func (in *Interner) Name(i uint8) string {
	if int(i) < len(in.names) {
		return in.names[i]
	}
	return "?"
}
