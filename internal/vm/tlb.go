package vm

import (
	"repro/internal/mem"
)

// TLB tag word: vpn<<3 | size<<1 | 1, with 0 as the invalid sentinel (the
// valid bit makes the vpn-0 4KB tag distinct from empty). One uint64 compare
// checks validity, page size and page number at once, and the probe loop
// scans a dense tag array.
const (
	tlbTagValid     = 1 << 0
	tlbTagSizeShift = 1
	tlbTagVPNShift  = 3
)

func tlbTag(vpn mem.Addr, size mem.PageSize) uint64 {
	return uint64(vpn)<<tlbTagVPNShift | uint64(size)<<tlbTagSizeShift | tlbTagValid
}

// TLB is a set-associative translation lookaside buffer supporting 4KB, 2MB
// and 1GB entries in a unified array. Lookups probe the 4KB index first, then
// 2MB, then 1GB (a multi-probe unified design). Entries for 2MB and 1GB pages
// cover the whole region, increasing TLB reach exactly as in real hardware.
type TLB struct {
	sets, ways int
	// setMask is sets-1 when sets is a power of two (the default geometries
	// are), letting set selection use a mask instead of a modulo; zero when
	// the geometry forces the generic path.
	setMask mem.Addr
	tick    uint64

	// tags[s*ways+w] is the tag word of way w in set s (0 = invalid), with
	// frames and lrus indexed identically.
	tags   []uint64
	frames []mem.Addr
	lrus   []uint64

	// present[s] records whether an entry of page size s was ever inserted:
	// Lookup skips probe passes for sizes the workload never maps (pure 4KB
	// address spaces pay one probe instead of three). Conservatively sticky —
	// Flush invalidates entries but keeps the marks.
	present [mem.NumPageSizes]bool

	Hits, Misses uint64
	// HitsBy breaks Hits down by the hitting entry's page size, indexed by
	// mem.PageSize (telemetry: TLB reach gained from large pages).
	HitsBy [mem.NumPageSizes]uint64
}

// NewTLB creates a TLB with the given geometry. entries must be divisible by
// ways.
func NewTLB(entries, ways int) *TLB {
	if entries%ways != 0 {
		panic("vm: TLB entries not divisible by ways")
	}
	t := &TLB{
		sets:   entries / ways,
		ways:   ways,
		tags:   make([]uint64, entries),
		frames: make([]mem.Addr, entries),
		lrus:   make([]uint64, entries),
	}
	if t.sets&(t.sets-1) == 0 {
		t.setMask = mem.Addr(t.sets - 1)
	}
	return t
}

// setBase returns the index of way 0 of vpn's set in the parallel arrays.
func (t *TLB) setBase(vpn mem.Addr) int {
	if t.setMask != 0 {
		return int(vpn&t.setMask) * t.ways
	}
	s := int(vpn) % t.sets
	if s < 0 {
		s = -s
	}
	return s * t.ways
}

// Lookup probes the TLB for v. On a hit it returns the translation and
// refreshes the hit way's recency.
func (t *TLB) Lookup(v mem.Addr) (Translation, bool) {
	t.tick++
	for _, size := range [3]mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G} {
		if !t.present[size] {
			continue
		}
		vpn := mem.PageNumber(v, size)
		base := t.setBase(vpn)
		tag := tlbTag(vpn, size)
		ways := t.tags[base : base+t.ways]
		for i, tg := range ways {
			if tg == tag {
				t.lrus[base+i] = t.tick
				t.Hits++
				t.HitsBy[size]++
				off := v & (size.Bytes() - 1)
				return Translation{PAddr: t.frames[base+i] + off, Size: size}, true
			}
		}
	}
	t.Misses++
	return Translation{}, false
}

// Insert installs a translation for v, evicting the set's LRU entry: the
// victim is the first invalid way, else the strict minimum-LRU way scanning
// left to right.
func (t *TLB) Insert(v mem.Addr, tr Translation) {
	t.tick++
	t.present[tr.Size] = true
	vpn := mem.PageNumber(v, tr.Size)
	base := t.setBase(vpn)
	tag := tlbTag(vpn, tr.Size)
	victim := 0
	for i := 0; i < t.ways; i++ {
		tg := t.tags[base+i]
		if tg == tag {
			t.lrus[base+i] = t.tick // refresh duplicate
			return
		}
		if tg == 0 {
			victim = i
			break
		}
		if t.lrus[base+i] < t.lrus[base+victim] {
			victim = i
		}
	}
	t.tags[base+victim] = tag
	t.frames[base+victim] = mem.PageBase(tr.PAddr, tr.Size)
	t.lrus[base+victim] = t.tick
}

// Flush invalidates all entries.
func (t *TLB) Flush() {
	for i := range t.tags {
		t.tags[i] = 0
	}
}
