package vm

import "repro/internal/mem"

// Reference models for the dense translation structures. Each is the
// straightforward struct-per-entry form of a production structure, kept only
// as an oracle: the property and fuzz tests drive a reference and the
// production structure in lockstep and require identical observable results.

// radixTable is a pointer-radix page table. It draws node frames from its own
// allocator in the same order PageTable does, so an allocator with the same
// seed yields identical walk references.
type radixTable struct {
	alloc *Allocator
	root  *radixNode
	pages int
}

// radixNode is one pointer-radix node; PTE.Valid marks occupied leaf slots.
type radixNode struct {
	phys  mem.Addr // physical base of this node (walk references target it)
	child [ptFanout]*radixNode
	leaf  [ptFanout]PTE
}

func newRadixTable(alloc *Allocator) *radixTable {
	return &radixTable{alloc: alloc, root: &radixNode{phys: alloc.AllocPTNode()}}
}

func (rt *radixTable) Map(v mem.Addr, pte PTE) {
	pte.Valid = true
	n := rt.root
	lastLevel := leafLevel(pte.Size)
	for level := levelPML4; level < lastLevel; level++ {
		idx := vaIndex(v, level)
		c := n.child[idx]
		if c == nil {
			c = &radixNode{phys: rt.alloc.AllocPTNode()}
			n.child[idx] = c
		}
		n = c
	}
	idx := vaIndex(v, lastLevel)
	if n.leaf[idx].Valid {
		panic("vm: double mapping")
	}
	n.leaf[idx] = pte
	rt.pages++
}

func (rt *radixTable) Walk(v mem.Addr) (WalkResult, bool) {
	var res WalkResult
	n := rt.root
	for level := levelPML4; level < numLevels; level++ {
		idx := vaIndex(v, level)
		res.Refs[level] = n.phys + mem.Addr(idx)*8
		res.Levels = level + 1
		if pte := n.leaf[idx]; pte.Valid {
			res.PTE = pte
			return res, true
		}
		if n = n.child[idx]; n == nil {
			return WalkResult{}, false
		}
	}
	return WalkResult{}, false
}

func (rt *radixTable) Lookup(v mem.Addr) (PTE, bool) {
	r, ok := rt.Walk(v)
	return r.PTE, ok
}

// refTLB is a set-associative TLB with one struct per way and the same
// replacement rule as TLB: first invalid way, else the strict minimum-LRU
// way scanning left to right.
type refTLB struct {
	sets, ways int
	tick       uint64
	entries    []refTLBEntry // sets × ways
	present    [mem.NumPageSizes]bool

	Hits, Misses uint64
	HitsBy       [mem.NumPageSizes]uint64
}

type refTLBEntry struct {
	vpn   mem.Addr // page number for the entry's own size
	frame mem.Addr // physical page base
	size  mem.PageSize
	valid bool
	lru   uint64
}

func newRefTLB(entries, ways int) *refTLB {
	return &refTLB{sets: entries / ways, ways: ways, entries: make([]refTLBEntry, entries)}
}

func (t *refTLB) set(vpn mem.Addr) []refTLBEntry {
	base := int(vpn%mem.Addr(t.sets)) * t.ways
	return t.entries[base : base+t.ways]
}

func (t *refTLB) Lookup(v mem.Addr) (Translation, bool) {
	t.tick++
	for _, size := range [3]mem.PageSize{mem.Page4K, mem.Page2M, mem.Page1G} {
		if !t.present[size] {
			continue
		}
		vpn := mem.PageNumber(v, size)
		set := t.set(vpn)
		for i := range set {
			e := &set[i]
			if e.valid && e.size == size && e.vpn == vpn {
				e.lru = t.tick
				t.Hits++
				t.HitsBy[size]++
				return Translation{PAddr: e.frame + v&(size.Bytes()-1), Size: size}, true
			}
		}
	}
	t.Misses++
	return Translation{}, false
}

func (t *refTLB) Insert(v mem.Addr, tr Translation) {
	t.tick++
	t.present[tr.Size] = true
	vpn := mem.PageNumber(v, tr.Size)
	set := t.set(vpn)
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.size == tr.Size && e.vpn == vpn {
			e.lru = t.tick // refresh duplicate
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = refTLBEntry{vpn: vpn, frame: mem.PageBase(tr.PAddr, tr.Size), size: tr.Size, valid: true, lru: t.tick}
}

func (t *refTLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
}

// refWalkCache is a fully-associative walk cache with one struct per entry
// and the same replacement rule as WalkCache.
type refWalkCache struct {
	entries []refPWCEntry
	tick    uint64
	Hits    uint64
	Lookups uint64
}

type refPWCEntry struct {
	level int
	key   mem.Addr
	valid bool
	lru   uint64
}

func (w *refWalkCache) contains(level int, key mem.Addr) bool {
	w.Lookups++
	w.tick++
	for i := range w.entries {
		e := &w.entries[i]
		if e.valid && e.level == level && e.key == key {
			e.lru = w.tick
			w.Hits++
			return true
		}
	}
	return false
}

func (w *refWalkCache) insert(level int, key mem.Addr) {
	w.tick++
	victim := 0
	for i := range w.entries {
		if !w.entries[i].valid {
			victim = i
			break
		}
		if w.entries[i].lru < w.entries[victim].lru {
			victim = i
		}
	}
	w.entries[victim] = refPWCEntry{level: level, key: key, valid: true, lru: w.tick}
}
