package vm

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// Property and differential tests for the dense-array translation structures:
// the flat page table, TLB and walk cache must be observationally identical
// to the pointer-radix and struct-per-entry reference models in ref_test.go,
// and the whole walk path must stay allocation-free in steady state.

// gigaSome claims a single 1GB region for an explicit 1GB page (the allocator
// reserves exactly one 1GB frame), so a single address space mixes all three
// page sizes.
type gigaSome struct{ FractionTHP }

func (gigaSome) Use1GB(r mem.Addr) bool { return r>>30 == 3 }

// TestPropTranslationRoundTrip: under a randomized mix of 4KB, 2MB and 1GB
// mappings, translations preserve page-offset bits, are stable, agree with the
// page table, and report walk depths matching the page size. The subtest keeps
// the name of the dense ("flat") page table it exercises.
func TestPropTranslationRoundTrip(t *testing.T) {
	t.Run("flat", testTranslationRoundTrip)
}

func testTranslationRoundTrip(t *testing.T) {
	as := NewAddressSpace(NewAllocator(8<<30, 21), gigaSome{FractionTHP{Frac: 0.5, Seed: 23}})
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		v := mem.Addr(rng.Int63n(1 << 33))
		tr := as.Translate(v)
		if tr.PAddr&(tr.Size.Bytes()-1) != v&(tr.Size.Bytes()-1) {
			t.Fatalf("offset bits lost: v=%#x tr=%+v", v, tr)
		}
		if tr2 := as.Translate(v); tr2 != tr {
			t.Fatalf("translation unstable: v=%#x %+v vs %+v", v, tr, tr2)
		}
		pte, ok := as.PageTable().Lookup(v)
		if !ok || pte.Size != tr.Size || pte.Frame != mem.PageBase(tr.PAddr, tr.Size) {
			t.Fatalf("Lookup disagrees with Translate: v=%#x pte=%+v tr=%+v", v, pte, tr)
		}
		walk, wtr := as.WalkFor(v)
		if wtr != tr {
			t.Fatalf("WalkFor translation mismatch: v=%#x %+v vs %+v", v, wtr, tr)
		}
		wantLevels := map[mem.PageSize]int{mem.Page4K: 4, mem.Page2M: 3, mem.Page1G: 2}[tr.Size]
		if walk.Levels != wantLevels {
			t.Fatalf("walk levels = %d for %v page", walk.Levels, tr.Size)
		}
	}
}

// mkPageTables builds the flat page table and a radix reference over
// allocators with identical seeds, so matched Map sequences produce
// identical frames.
func mkPageTables(seed uint64) (flat *PageTable, radix *radixTable, fa, ra *Allocator) {
	fa, ra = NewAllocator(8<<30, seed), NewAllocator(8<<30, seed)
	return NewPageTable(fa), newRadixTable(ra), fa, ra
}

// TestPropRadixFlatWalkEquivalence: randomized mapping sequences produce
// byte-identical Walk and Lookup results (references, levels, leaf PTEs) from
// the flat and radix representations.
func TestPropRadixFlatWalkEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1234} {
		flat, radix, fa, ra := mkPageTables(seed)
		rng := rand.New(rand.NewSource(int64(seed) * 31))
		sizes := []mem.PageSize{mem.Page4K, mem.Page4K, mem.Page4K, mem.Page2M, mem.Page2M}
		var mapped []mem.Addr
		// One 1GB mapping (the allocator reserves a single 1GB frame), then a
		// randomized mix of 4KB and 2MB mappings around it.
		g := mem.Addr(7) << 30
		gf := fa.Alloc1G()
		ra.Alloc1G()
		flat.Map(g, PTE{Frame: gf, Size: mem.Page1G, Valid: true})
		radix.Map(g, PTE{Frame: gf, Size: mem.Page1G, Valid: true})
		mapped = append(mapped, g, g+512<<20)
		// Like AddressSpace, each 2MB region holds either one 2MB leaf or
		// scattered 4KB pages — never a mix (the tables reject shadowing).
		has4K := map[mem.Addr]bool{}
		for i := 0; i < 600; i++ {
			size := sizes[rng.Intn(len(sizes))]
			v := mem.PageBase(mem.Addr(rng.Int63n(1<<38)), size)
			if v>>30 == 7 {
				continue // covered by the 1GB leaf
			}
			if size == mem.Page2M && has4K[v>>mem.PageBits2M] {
				continue
			}
			// Skip addresses already covered by either table (the address
			// space owns dedup; both tables panic on overlap).
			if _, ok := flat.Lookup(v); ok {
				continue
			}
			if size == mem.Page4K {
				has4K[v>>mem.PageBits2M] = true
			}
			var frame mem.Addr
			switch size {
			case mem.Page1G:
				frame = fa.Alloc1G()
				ra.Alloc1G()
			case mem.Page2M:
				frame = fa.Alloc2M()
				ra.Alloc2M()
			default:
				frame = fa.Alloc4K()
				ra.Alloc4K()
			}
			flat.Map(v, PTE{Frame: frame, Size: size, Valid: true})
			radix.Map(v, PTE{Frame: frame, Size: size, Valid: true})
			mapped = append(mapped, v)
		}
		probe := func(v mem.Addr) {
			fw, fok := flat.Walk(v)
			rw, rok := radix.Walk(v)
			if fok != rok || fw != rw {
				t.Fatalf("seed %d: walk diverged at %#x:\nflat  %v %+v\nradix %v %+v", seed, v, fok, fw, rok, rw)
			}
			fp, fok2 := flat.Lookup(v)
			rp, rok2 := radix.Lookup(v)
			if fok2 != rok2 || fp != rp {
				t.Fatalf("seed %d: lookup diverged at %#x: %v %+v vs %v %+v", seed, v, fok2, fp, rok2, rp)
			}
		}
		for _, v := range mapped {
			probe(v)
			probe(v + mem.Addr(rng.Int63n(int64(mem.PageSize4K))))
		}
		for i := 0; i < 500; i++ {
			probe(mem.Addr(rng.Int63n(1 << 39))) // mostly unmapped
		}
		if flat.Pages() != radix.pages {
			t.Fatalf("page counts diverged: %d vs %d", flat.Pages(), radix.pages)
		}
	}
}

// TestPropTLBFlatLegacyEquivalence: a randomized lookup/insert/flush sequence
// drives the dense TLB and the struct-per-way reference; every return value
// and every statistic must match.
func TestPropTLBFlatLegacyEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 17, 404} {
		flat, legacy := NewTLB(64, 4), newRefTLB(64, 4)
		rng := rand.New(rand.NewSource(seed))
		sizes := []mem.PageSize{mem.Page4K, mem.Page4K, mem.Page2M, mem.Page1G}
		for i := 0; i < 8000; i++ {
			// A small vpn pool forces set conflicts, duplicate inserts and
			// evictions — the interesting transitions.
			v := mem.Addr(rng.Intn(96)) << mem.PageBits4K
			switch rng.Intn(4) {
			case 0, 1:
				ft, fok := flat.Lookup(v)
				lt, lok := legacy.Lookup(v)
				if fok != lok || ft != lt {
					t.Fatalf("seed %d op %d: lookup(%#x) diverged: %v %+v vs %v %+v", seed, i, v, fok, ft, lok, lt)
				}
			case 2:
				size := sizes[rng.Intn(len(sizes))]
				tr := Translation{PAddr: mem.PageBase(mem.Addr(rng.Intn(1<<20))<<mem.PageBits4K, size), Size: size}
				flat.Insert(v, tr)
				legacy.Insert(v, tr)
			case 3:
				if rng.Intn(50) == 0 {
					flat.Flush()
					legacy.Flush()
				}
			}
		}
		if flat.Hits != legacy.Hits || flat.Misses != legacy.Misses || flat.HitsBy != legacy.HitsBy {
			t.Fatalf("seed %d: stats diverged: flat %d/%d/%v legacy %d/%d/%v",
				seed, flat.Hits, flat.Misses, flat.HitsBy, legacy.Hits, legacy.Misses, legacy.HitsBy)
		}
	}
}

// TestPropTLBDenseInvariants checks structural invariants of the dense layout
// directly: tag words are valid or zero, valid ways are exactly the non-zero
// LRU stamps, stamps within a set are unique (the strict-LRU victim order is
// well-defined), and an entry survives exactly ways-1 subsequent distinct
// inserts into its set without a touch.
func TestPropTLBDenseInvariants(t *testing.T) {
	tlb := NewTLB(32, 4)
	rng := rand.New(rand.NewSource(8))
	check := func() {
		for s := 0; s < tlb.sets; s++ {
			seen := map[uint64]bool{}
			for w := 0; w < tlb.ways; w++ {
				i := s*tlb.ways + w
				tag, lru := tlb.tags[i], tlb.lrus[i]
				if (tag == 0) != (lru == 0) && tag == 0 {
					t.Fatalf("set %d way %d: invalid entry with LRU stamp %d", s, w, lru)
				}
				if tag != 0 {
					if tag&tlbTagValid == 0 {
						t.Fatalf("set %d way %d: tag %#x missing valid bit", s, w, tag)
					}
					if seen[lru] {
						t.Fatalf("set %d: duplicate LRU stamp %d", s, lru)
					}
					seen[lru] = true
				}
			}
		}
	}
	for i := 0; i < 4000; i++ {
		v := mem.Addr(rng.Intn(4096)) << mem.PageBits4K
		if rng.Intn(2) == 0 {
			tlb.Lookup(v)
		} else {
			tlb.Insert(v, Translation{PAddr: v, Size: mem.Page4K})
		}
		if i%64 == 0 {
			check()
		}
	}
	check()

	// LRU retention: in a fresh set, an untouched entry survives ways-1
	// further inserts and is evicted by the ways-th.
	tlb2 := NewTLB(4, 4) // one set
	base := mem.Addr(0x100) << mem.PageBits4K
	tlb2.Insert(base, Translation{PAddr: base, Size: mem.Page4K})
	for k := 1; k < 4; k++ {
		tlb2.Insert(base+mem.Addr(k)<<mem.PageBits4K, Translation{PAddr: base, Size: mem.Page4K})
		if _, ok := tlb2.Lookup(base); !ok {
			t.Fatalf("entry evicted after only %d inserts into a 4-way set", k)
		}
		tlb2.Lookup(base) // keep it MRU-adjacent but deterministic
	}
}

// TestPropWalkCacheFlatLegacyEquivalence drives the dense walk cache and the
// struct-per-entry reference with a randomized contains/insert sequence.
func TestPropWalkCacheFlatLegacyEquivalence(t *testing.T) {
	flat := NewWalkCache(8)
	legacy := &refWalkCache{entries: make([]refPWCEntry, 8)}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		level := rng.Intn(3)
		key := mem.Addr(rng.Intn(40))
		if rng.Intn(2) == 0 {
			if f, l := flat.contains(level, key), legacy.contains(level, key); f != l {
				t.Fatalf("op %d: contains(%d,%#x) diverged: %v vs %v", i, level, key, f, l)
			}
		} else {
			flat.insert(level, key)
			legacy.insert(level, key)
		}
	}
	if flat.Hits != legacy.Hits || flat.Lookups != legacy.Lookups {
		t.Fatalf("stats diverged: %d/%d vs %d/%d", flat.Hits, flat.Lookups, legacy.Hits, legacy.Lookups)
	}
}

// TestWalkPathZeroAllocs locks down the allocation-free walk path: with a tiny
// TLB over a pre-mapped working set, every translate is a TLB miss and a full
// walk (arena scratch requests, flat-table reads, walk-cache probes), and none
// of it may allocate.
func TestWalkPathZeroAllocs(t *testing.T) {
	as := NewAddressSpace(NewAllocator(1<<30, 31), FractionTHP{Frac: 0.3, Seed: 5})
	cfg := DefaultMMUConfig()
	cfg.L1Entries, cfg.L1Ways = 4, 4 // one set: guarantees misses across a wide sweep
	cfg.L2Entries, cfg.L2Ways = 4, 4
	port := mem.PortFunc(func(req *mem.Request, at mem.Cycle) mem.Cycle { return at + 5 })
	m := NewMMU(as, cfg, 0, port)
	const pages = 512
	for p := 0; p < pages; p++ {
		as.Translate(0x40000000 + mem.Addr(p)<<mem.PageBits4K) // pre-map
	}
	i := 0
	step := func() {
		v := 0x40000000 + mem.Addr(i%pages)<<mem.PageBits4K
		m.Translate(v, mem.Cycle(i))
		i += 37 // stride across sets so the tiny TLBs keep missing
	}
	for k := 0; k < 256; k++ {
		step() // warm the walk arena and any lazily-sized state
	}
	avg := testing.AllocsPerRun(100, func() {
		for k := 0; k < 64; k++ {
			step()
		}
	})
	if avg != 0 {
		t.Errorf("TLB-miss-heavy walk path allocates: %.2f allocs per 64 translates", avg)
	}
	if m.Walks == 0 {
		t.Fatal("test did not exercise the walk path")
	}
}
