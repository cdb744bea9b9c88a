package vm

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newTestAllocator() *Allocator {
	return NewAllocator(1<<30, 42) // 1GB is plenty for unit tests
}

func TestAllocatorRegionsDisjoint(t *testing.T) {
	a := newTestAllocator()
	pt := a.AllocPTNode()
	huge := a.Alloc2M()
	small := a.Alloc4K()
	if pt >= a.ptEnd {
		t.Errorf("PT node %#x outside PT region", pt)
	}
	if huge < a.ptEnd || huge >= a.hugeEnd {
		t.Errorf("2MB frame %#x outside huge region [%#x,%#x)", huge, a.ptEnd, a.hugeEnd)
	}
	if small < a.smallBase {
		t.Errorf("4KB frame %#x below small region base %#x", small, a.smallBase)
	}
	if huge%mem.PageSize2M != 0 {
		t.Errorf("2MB frame %#x not 2MB-aligned", huge)
	}
	if small%mem.PageSize4K != 0 {
		t.Errorf("4KB frame %#x not 4KB-aligned", small)
	}
}

func TestAllocator4KFramesUniqueAndScattered(t *testing.T) {
	a := newTestAllocator()
	const n = 4096
	seen := make(map[mem.Addr]bool, n)
	contiguous := 0
	var prev mem.Addr
	for i := 0; i < n; i++ {
		f := a.Alloc4K()
		if seen[f] {
			t.Fatalf("frame %#x allocated twice", f)
		}
		seen[f] = true
		if i > 0 && f == prev+mem.PageSize4K {
			contiguous++
		}
		prev = f
	}
	// Physical fragmentation is the point: virtually consecutive 4KB pages
	// must almost never be physically consecutive.
	if contiguous > n/100 {
		t.Errorf("%d/%d consecutive 4KB allocations were physically contiguous", contiguous, n)
	}
}

func TestAllocatorAccounting(t *testing.T) {
	a := newTestAllocator()
	a.Alloc2M()
	a.Alloc4K()
	a.Alloc4K()
	if a.Bytes2M != mem.PageSize2M {
		t.Errorf("Bytes2M = %d", a.Bytes2M)
	}
	if a.Bytes4K != 2*mem.PageSize4K {
		t.Errorf("Bytes4K = %d", a.Bytes4K)
	}
	want := float64(mem.PageSize2M) / float64(mem.PageSize2M+2*mem.PageSize4K)
	if got := a.Frac2M(); got != want {
		t.Errorf("Frac2M = %v, want %v", got, want)
	}
}

func TestFrac2MEmptyIsZero(t *testing.T) {
	if got := newTestAllocator().Frac2M(); got != 0 {
		t.Errorf("Frac2M of empty allocator = %v", got)
	}
}

func TestPageTableWalkLevels(t *testing.T) {
	a := newTestAllocator()
	pt := NewPageTable(a)
	v4k := mem.Addr(0x7f000_0000)
	pt.Map(v4k, PTE{Frame: a.Alloc4K(), Size: mem.Page4K, Valid: true})
	r, ok := pt.Walk(v4k)
	if !ok {
		t.Fatal("walk of mapped 4KB page failed")
	}
	if r.Levels != 4 {
		t.Errorf("4KB walk levels = %d, want 4", r.Levels)
	}

	v2m := mem.Addr(0x40000000) // 2MB-aligned, distinct subtree
	pt.Map(v2m, PTE{Frame: a.Alloc2M(), Size: mem.Page2M, Valid: true})
	r, ok = pt.Walk(v2m + 0x12345)
	if !ok {
		t.Fatal("walk of mapped 2MB page failed")
	}
	if r.Levels != 3 {
		t.Errorf("2MB walk levels = %d, want 3", r.Levels)
	}
	if r.PTE.Size != mem.Page2M {
		t.Errorf("walk size = %v, want 2MB", r.PTE.Size)
	}
}

func TestPageTableUnmapped(t *testing.T) {
	a := newTestAllocator()
	pt := NewPageTable(a)
	if _, ok := pt.Walk(0x123456); ok {
		t.Error("walk of unmapped address succeeded")
	}
}

func TestPageTableDoubleMapPanics(t *testing.T) {
	a := newTestAllocator()
	pt := NewPageTable(a)
	pt.Map(0x1000, PTE{Frame: a.Alloc4K(), Size: mem.Page4K, Valid: true})
	defer func() {
		if recover() == nil {
			t.Error("double Map did not panic")
		}
	}()
	pt.Map(0x1000, PTE{Frame: a.Alloc4K(), Size: mem.Page4K, Valid: true})
}

func TestAddressSpaceTranslateStable(t *testing.T) {
	as := NewAddressSpace(newTestAllocator(), FractionTHP{Frac: 0.5, Seed: 7})
	for _, v := range []mem.Addr{0x1000, 0x200000, 0x10200040, 0x7ffff000} {
		tr1 := as.Translate(v)
		tr2 := as.Translate(v)
		if tr1 != tr2 {
			t.Errorf("translation of %#x not stable: %+v vs %+v", v, tr1, tr2)
		}
		if tr1.PAddr&(mem.BlockSize-1) != v&(mem.BlockSize-1) {
			t.Errorf("low bits not preserved for %#x", v)
		}
	}
}

func TestAddressSpaceHugeRegionsContiguous(t *testing.T) {
	as := NewAddressSpace(newTestAllocator(), FractionTHP{Frac: 1})
	base := mem.Addr(0x40000000)
	tr0 := as.Translate(base)
	if tr0.Size != mem.Page2M {
		t.Fatalf("size = %v, want 2MB under Frac=1 policy", tr0.Size)
	}
	// Every 4KB page inside the 2MB region must be physically contiguous.
	for off := mem.Addr(0); off < mem.PageSize2M; off += mem.PageSize4K {
		tr := as.Translate(base + off)
		if tr.PAddr != tr0.PAddr+off {
			t.Fatalf("offset %#x: paddr %#x, want %#x", off, tr.PAddr, tr0.PAddr+off)
		}
	}
}

func TestAddressSpaceSmallPagesScattered(t *testing.T) {
	as := NewAddressSpace(newTestAllocator(), FractionTHP{Frac: 0})
	base := mem.Addr(0x40000000)
	tr0 := as.Translate(base)
	if tr0.Size != mem.Page4K {
		t.Fatalf("size = %v, want 4KB under Frac=0 policy", tr0.Size)
	}
	tr1 := as.Translate(base + mem.PageSize4K)
	if tr1.PAddr == tr0.PAddr+mem.PageSize4K {
		t.Error("virtually consecutive 4KB pages were physically contiguous (fragmentation not modelled)")
	}
}

func TestFractionTHPDeterministicAndProportional(t *testing.T) {
	p := FractionTHP{Frac: 0.7, Seed: 3}
	huge := 0
	const n = 2000
	for i := 0; i < n; i++ {
		r := mem.Addr(i) << mem.PageBits2M
		a := p.Use2MB(r, i)
		b := p.Use2MB(r, i)
		if a != b {
			t.Fatalf("policy not deterministic for region %d", i)
		}
		if a {
			huge++
		}
	}
	frac := float64(huge) / n
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("observed huge fraction %v, want ≈0.7", frac)
	}
}

func TestRampTHP(t *testing.T) {
	p := RampTHP{StartFrac: 0, EndFrac: 1, RampRegions: 100, Seed: 1}
	early, late := 0, 0
	for i := 0; i < 30; i++ {
		if p.Use2MB(mem.Addr(i)<<mem.PageBits2M, i) {
			early++
		}
	}
	for i := 200; i < 230; i++ {
		if p.Use2MB(mem.Addr(i)<<mem.PageBits2M, i) {
			late++
		}
	}
	if early >= late {
		t.Errorf("ramp policy: early=%d late=%d, want early < late", early, late)
	}
	if late != 30 {
		t.Errorf("after ramp completes all regions should be huge, got %d/30", late)
	}
}

func TestTLBHitAfterInsert(t *testing.T) {
	tlb := NewTLB(64, 4)
	tr := Translation{PAddr: 0xabc000, Size: mem.Page4K}
	v := mem.Addr(0x5000)
	if _, ok := tlb.Lookup(v); ok {
		t.Fatal("hit in empty TLB")
	}
	tlb.Insert(v, tr)
	got, ok := tlb.Lookup(v + 0x123)
	if !ok {
		t.Fatal("miss after insert")
	}
	if got.PAddr != 0xabc123 {
		t.Errorf("PAddr = %#x, want 0xabc123", got.PAddr)
	}
}

func TestTLB2MBEntryCoversRegion(t *testing.T) {
	tlb := NewTLB(64, 4)
	base := mem.Addr(0x40000000)
	tlb.Insert(base, Translation{PAddr: 0x80000000, Size: mem.Page2M})
	// Any address within the 2MB region hits the single entry.
	got, ok := tlb.Lookup(base + 0x123456)
	if !ok {
		t.Fatal("2MB entry did not cover in-region address")
	}
	if got.PAddr != 0x80123456 {
		t.Errorf("PAddr = %#x", got.PAddr)
	}
	if got.Size != mem.Page2M {
		t.Errorf("Size = %v", got.Size)
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	tlb := NewTLB(4, 4) // one set
	for i := 0; i < 4; i++ {
		tlb.Insert(mem.Addr(i)<<mem.PageBits4K, Translation{PAddr: mem.Addr(i) << mem.PageBits4K, Size: mem.Page4K})
	}
	// Touch entry 0 so entry 1 becomes LRU.
	tlb.Lookup(0)
	tlb.Insert(mem.Addr(100)<<mem.PageBits4K, Translation{PAddr: 0x1000000, Size: mem.Page4K})
	if _, ok := tlb.Lookup(mem.Addr(1) << mem.PageBits4K); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := tlb.Lookup(0); !ok {
		t.Error("MRU entry was evicted")
	}
}

func TestMMUWalkLatencyAndCaching(t *testing.T) {
	as := NewAddressSpace(newTestAllocator(), FractionTHP{Frac: 0})
	var refs int
	port := mem.PortFunc(func(req *mem.Request, at mem.Cycle) mem.Cycle {
		if req.Type != mem.PageWalk {
			t.Errorf("walker issued %v request", req.Type)
		}
		refs++
		return at + 10
	})
	m := NewMMU(as, DefaultMMUConfig(), 0, port)
	v := mem.Addr(0x40000000)

	_, done := m.Translate(v, 0)
	if refs != 4 {
		t.Errorf("first 4KB walk refs = %d, want 4", refs)
	}
	if done != 8+4*10 {
		t.Errorf("walk completion = %d, want 48", done)
	}
	// Second translation of the same page hits the L1 TLB: no latency.
	_, done = m.Translate(v, 100)
	if done != 100 {
		t.Errorf("TLB hit added latency: %d", done)
	}
	// A different page in the same subtree should hit the MMU caches for the
	// interior levels and only fetch the leaf.
	refs = 0
	m.Translate(v+mem.PageSize4K, 0)
	if refs != 1 {
		t.Errorf("walk refs with warm MMU caches = %d, want 1", refs)
	}
}

func TestMMU2MBWalkShorter(t *testing.T) {
	as := NewAddressSpace(newTestAllocator(), FractionTHP{Frac: 1})
	var refs int
	port := mem.PortFunc(func(req *mem.Request, at mem.Cycle) mem.Cycle {
		refs++
		return at
	})
	m := NewMMU(as, DefaultMMUConfig(), 0, port)
	m.Translate(0x40000000, 0)
	if refs != 3 {
		t.Errorf("2MB walk refs = %d, want 3", refs)
	}
}

func TestMMUResident(t *testing.T) {
	as := NewAddressSpace(newTestAllocator(), FractionTHP{Frac: 0})
	m := NewMMU(as, DefaultMMUConfig(), 0, nil)
	v := mem.Addr(0x1234000)
	if m.Resident(v) {
		t.Error("unmapped address reported resident")
	}
	m.Translate(v, 0)
	if !m.Resident(v) {
		t.Error("just-translated address not resident")
	}
	// Residency probes must not disturb hit/miss statistics.
	h, mi, by := m.l1.Hits, m.l1.Misses, m.l1.HitsBy
	h2, mi2 := m.l2.Hits, m.l2.Misses
	m.Resident(v)
	m.Resident(v + mem.PageSize2M)
	if m.l1.Hits != h || m.l1.Misses != mi || m.l1.HitsBy != by || m.l2.Hits != h2 || m.l2.Misses != mi2 {
		t.Error("Resident perturbed TLB statistics")
	}

	// A probe is nonetheless a real lookup: a hit refreshes recency. In a
	// 1-set, 2-way L1 TLB holding A then B, probing A leaves B the LRU way,
	// so the next insert evicts B and A survives.
	cfg := DefaultMMUConfig()
	cfg.L1Entries, cfg.L1Ways = 2, 2
	m = NewMMU(as, cfg, 0, nil)
	a, b, c := mem.Addr(0x10000), mem.Addr(0x11000), mem.Addr(0x12000)
	for _, p := range []mem.Addr{a, b} {
		m.l1.Insert(p, Translation{PAddr: p, Size: mem.Page4K})
	}
	if !m.Resident(a) {
		t.Fatal("inserted entry not resident")
	}
	m.l1.Insert(c, Translation{PAddr: c, Size: mem.Page4K})
	if _, ok := m.l1.Lookup(a); !ok {
		t.Error("probed entry evicted: a residency hit must refresh recency")
	}
	if _, ok := m.l1.Lookup(b); ok {
		t.Error("unprobed entry survived: the probe did not reorder the set")
	}
}

// Property: translations preserve page-offset bits and report the size of the
// backing page consistently with the page table.
func TestTranslatePropertyOffsetsPreserved(t *testing.T) {
	as := NewAddressSpace(NewAllocator(1<<32, 9), FractionTHP{Frac: 0.5, Seed: 11})
	f := func(page uint16, off uint16) bool {
		v := mem.Addr(page)<<mem.PageBits4K | mem.Addr(off)&(mem.PageSize4K-1)
		tr := as.Translate(v)
		if tr.PAddr&(tr.Size.Bytes()-1) != v&(tr.Size.Bytes()-1) {
			return false
		}
		pte, ok := as.PageTable().Lookup(v)
		return ok && pte.Size == tr.Size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTLBPrefetcherReducesWalksOnSweep(t *testing.T) {
	mk := func(prefetch bool) *MMU {
		as := NewAddressSpace(NewAllocator(1<<30, 11), FractionTHP{Frac: 0})
		// Pre-map a contiguous virtual range so the prefetcher has mapped
		// neighbours to translate.
		for p := mem.Addr(0); p < 512; p++ {
			as.Translate(0x40000000 + p<<mem.PageBits4K)
		}
		cfg := DefaultMMUConfig()
		cfg.L1Entries, cfg.L1Ways = 4, 4 // tiny L1 TLB: force L2 traffic
		cfg.L2Entries, cfg.L2Ways = 64, 4
		cfg.TLBPrefetch = prefetch
		return NewMMU(as, cfg, 0, nil)
	}
	walks := func(m *MMU) uint64 {
		for p := mem.Addr(0); p < 256; p++ {
			m.Translate(0x40000000+p<<mem.PageBits4K, 0)
		}
		return m.Walks
	}
	base := walks(mk(false))
	pref := walks(mk(true))
	if pref >= base {
		t.Errorf("TLB prefetcher did not reduce demand walks: %d vs %d", pref, base)
	}
	m := mk(true)
	walks(m)
	if m.TLBPrefetches == 0 {
		t.Error("no TLB prefetches recorded")
	}
}

func TestTLBPrefetcherNeverMapsPages(t *testing.T) {
	as := NewAddressSpace(NewAllocator(1<<30, 13), FractionTHP{Frac: 0})
	cfg := DefaultMMUConfig()
	cfg.TLBPrefetch = true
	m := NewMMU(as, cfg, 0, nil)
	pages := as.PageTable().Pages()
	m.Translate(0x50000000, 0) // neighbour pages are unmapped
	if got := as.PageTable().Pages(); got != pages+1 {
		t.Errorf("TLB prefetch created mappings: %d -> %d", pages, got)
	}
}

func TestAllocator2MExhaustionPanics(t *testing.T) {
	a := NewAllocator(64<<20, 1) // tiny memory: huge region = 32MB
	defer func() {
		if recover() == nil {
			t.Error("exhausting the 2MB region did not panic")
		}
	}()
	for i := 0; i < 1000; i++ {
		a.Alloc2M()
	}
}

func TestWalkCacheAccounting(t *testing.T) {
	w := NewWalkCache(4)
	if w.contains(0, 0x1) {
		t.Error("hit in empty walk cache")
	}
	w.insert(0, 0x1)
	if !w.contains(0, 0x1) {
		t.Error("miss after insert")
	}
	if w.contains(1, 0x1) {
		t.Error("level not part of the key")
	}
	if w.Hits != 1 || w.Lookups != 3 {
		t.Errorf("hits/lookups = %d/%d", w.Hits, w.Lookups)
	}
	// LRU eviction across a full cache.
	for i := 2; i <= 5; i++ {
		w.insert(0, mem.Addr(i))
	}
	if w.contains(0, 0x1) {
		t.Error("LRU entry survived 4 inserts into a 4-entry cache")
	}
}

// TestAddressSpace2MBPromotionUnderFragmentation: a heavily fragmented
// small-frame pool must not break 2MB promotion. The huge region is separate
// by construction, so a region the policy promotes still gets an aligned,
// physically contiguous 2MB frame disjoint from every 4KB frame handed out.
func TestAddressSpace2MBPromotionUnderFragmentation(t *testing.T) {
	a := newTestAllocator()
	// Fragment the 4KB pool first: thousands of scattered frames.
	small := make(map[mem.Addr]bool)
	for i := 0; i < 5000; i++ {
		small[a.Alloc4K()] = true
	}
	as := NewAddressSpace(a, FractionTHP{Frac: 1})
	base := mem.Addr(0x7f200000) // 2MB-aligned
	tr := as.Translate(base)
	if tr.Size != mem.Page2M {
		t.Fatalf("promotion failed under fragmentation: size = %v", tr.Size)
	}
	frame := mem.PageBase(tr.PAddr, mem.Page2M)
	if frame%mem.PageSize2M != 0 {
		t.Errorf("promoted frame %#x not 2MB-aligned", frame)
	}
	for off := mem.Addr(0); off < mem.PageSize2M; off += mem.PageSize4K {
		if tr2 := as.Translate(base + off); tr2.PAddr != tr.PAddr+off {
			t.Fatalf("promoted region not contiguous at offset %#x", off)
		}
		if small[frame+off] {
			t.Fatalf("promoted frame overlaps scattered 4KB frame %#x", frame+off)
		}
	}
}

// TestAddressSpace1GBStraddlingRegion: around a 1GB region boundary where only
// the lower region is gigapage-backed, translations on each side use their own
// page size, walk depth, and disjoint frames — virtual adjacency across the
// boundary implies nothing physically.
func TestAddressSpace1GBStraddlingRegion(t *testing.T) {
	a := NewAllocator(8<<30, 17)
	as := NewAddressSpace(a, gigaLow{FractionTHP{Frac: 0}})
	boundary := mem.Addr(2) << 30 // end of the claimed region at 1<<30

	lo := as.Translate(boundary - 8)
	if lo.Size != mem.Page1G {
		t.Fatalf("below-boundary size = %v, want 1GB", lo.Size)
	}
	hi := as.Translate(boundary)
	if hi.Size != mem.Page4K {
		t.Fatalf("above-boundary size = %v, want 4KB", hi.Size)
	}
	if hi.PAddr == lo.PAddr+8 {
		t.Error("physically contiguous across a 1GB region boundary")
	}
	gbase := mem.PageBase(lo.PAddr, mem.Page1G)
	if hi.PAddr >= gbase && hi.PAddr < gbase+mem.PageSize1G {
		t.Errorf("4KB frame %#x landed inside the 1GB frame", hi.PAddr)
	}
	wlo, _ := as.WalkFor(boundary - 8)
	whi, _ := as.WalkFor(boundary)
	if wlo.Levels != 2 || whi.Levels != 4 {
		t.Errorf("walk levels across boundary = %d/%d, want 2/4", wlo.Levels, whi.Levels)
	}
	// The 1GB side stays one contiguous frame right up to its last byte.
	if end := as.Translate(boundary - mem.PageSize4K); end.PAddr != gbase+mem.PageSize1G-mem.PageSize4K {
		t.Errorf("last 4KB of the 1GB page not contiguous: %#x", end.PAddr)
	}
}

// gigaLow claims only the 1GB region starting at 1GB.
type gigaLow struct{ FractionTHP }

func (gigaLow) Use1GB(r mem.Addr) bool { return r == 1<<30 }

func TestPageTablePagesCount(t *testing.T) {
	a := newTestAllocator()
	pt := NewPageTable(a)
	if pt.Pages() != 0 {
		t.Error("fresh table has pages")
	}
	pt.Map(0x1000, PTE{Frame: a.Alloc4K(), Size: mem.Page4K, Valid: true})
	pt.Map(0x400000, PTE{Frame: a.Alloc2M(), Size: mem.Page2M, Valid: true})
	if pt.Pages() != 2 {
		t.Errorf("Pages() = %d, want 2", pt.Pages())
	}
}
