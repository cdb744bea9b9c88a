package cache

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// memoPair constructs two identically configured caches over independent
// recording next levels. The first arms the line-hit memo (no observer); the
// second attaches a NopObserver, which consumes OnAccess and so keeps the memo
// disarmed (TestMemoNotArmedWithAccessObserver), sending every access through
// the full probe and replacement path.
func memoPair(sets, ways int) (armed, disarmed *Cache, an, dn *fixedPort) {
	an, dn = &fixedPort{latency: 40}, &fixedPort{latency: 40}
	cfg := Config{Name: "c", Sets: sets, Ways: ways, Latency: 4, MSHREntries: 4}
	armed, disarmed = New(cfg, an), New(cfg, dn)
	disarmed.SetObserver(NopObserver{})
	return
}

// checkFastPathInvariants verifies the state the cache's fast paths rely on
// for exactness, after an access to block: every valid way's packed partial
// byte matches its tag, findIdx agrees with a linear scan of the tag array,
// and a live memo points at a way holding the memoed block that is its set's
// unique most-recently-used way.
func checkFastPathInvariants(c *Cache, block mem.Addr) error {
	ways := c.cfg.Ways
	for gi, tag := range c.tags {
		if tag == tagInvalid {
			continue
		}
		si, way := gi/ways, gi%ways
		got := c.partial[si*c.partialWords+way>>3] >> (uint(way&7) * 8) & 0xFF
		if got != partialOf(tag) {
			return fmt.Errorf("set %d way %d: partial byte %#x, want %#x for tag %#x", si, way, got, partialOf(tag), tag)
		}
	}
	si := c.SetIndex(block)
	want := -1
	for i, tag := range c.tags[si*ways : (si+1)*ways] {
		if tag == block {
			want = si*ways + i
		}
	}
	if got := c.findIdx(si, block); got != want {
		return fmt.Errorf("findIdx(%#x) = %d, linear scan = %d", block, got, want)
	}
	if c.memoBlock != tagInvalid && c.memoGen == c.setGen[c.memoSet] {
		if c.memoGI/ways != c.memoSet || c.tags[c.memoGI] != c.memoBlock {
			return fmt.Errorf("live memo for %#x points at way %d holding %#x", c.memoBlock, c.memoGI, c.tags[c.memoGI])
		}
		base := c.memoSet * ways
		for i, l := range c.lrus[base : base+ways] {
			if base+i != c.memoGI && l >= c.lrus[c.memoGI] {
				return fmt.Errorf("live memo way %d (lru %d) is not its set's unique MRU: way %d has lru %d",
					c.memoGI, c.lrus[c.memoGI], base+i, l)
			}
		}
	}
	return nil
}

// TestMemoDifferentialProperty drives random mixed-type request sequences —
// heavy set conflict (2 sets × 2 ways, and one 10-way set spanning two packed
// partial words, over 32 blocks), repeated same-cycle accesses, stores,
// prefetches and writebacks — through a memo-armed cache and a memo-disarmed
// cache in lockstep. Completion cycles, the full stats block, and the request
// stream reaching the next level must be identical at every step, and both
// caches must hold the fast-path invariants after every step: the memo, the
// packed probe and the miss-memoization are optimisations, never semantic
// changes.
func TestMemoDifferentialProperty(t *testing.T) {
	types := [4]mem.AccessType{mem.Load, mem.Store, mem.Prefetch, mem.Writeback}
	for _, geom := range [][2]int{{2, 2}, {1, 10}} {
		f := func(seq []uint16) bool {
			armed, disarmed, an, dn := memoPair(geom[0], geom[1])
			at := mem.Cycle(0)
			for _, raw := range seq {
				addr := mem.Addr(raw&0x1F) << mem.BlockBits
				typ := types[(raw>>5)&3]
				// Advance time by 0..31 cycles: zero keeps repeat accesses on
				// the same cycle, small steps land inside in-flight fills.
				at += mem.Cycle(raw >> 11)
				da := armed.Access(&mem.Request{PAddr: addr, Type: typ}, at)
				dd := disarmed.Access(&mem.Request{PAddr: addr, Type: typ}, at)
				if da != dd {
					t.Logf("addr=%#x type=%v at=%d: armed done %d, disarmed done %d",
						addr, typ, at, da, dd)
					return false
				}
				if armed.Stats != disarmed.Stats {
					t.Logf("stats diverged after addr=%#x type=%v at=%d:\narmed    %+v\ndisarmed %+v",
						addr, typ, at, armed.Stats, disarmed.Stats)
					return false
				}
				for _, c := range []*Cache{armed, disarmed} {
					if err := checkFastPathInvariants(c, addr); err != nil {
						t.Logf("after addr=%#x type=%v at=%d: %v", addr, typ, at, err)
						return false
					}
				}
			}
			if !reflect.DeepEqual(an.reqs, dn.reqs) {
				t.Logf("next-level traffic diverged:\narmed    %d reqs\ndisarmed %d reqs",
					len(an.reqs), len(dn.reqs))
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%d sets × %d ways: %v", geom[0], geom[1], err)
		}
	}
}

// memoCache builds a single-set cache so every access conflicts, with a slow
// next level so fills and misses are clearly distinguishable.
func memoCache(t *testing.T, ways int) (*Cache, *fixedPort) {
	t.Helper()
	next := &fixedPort{latency: 100}
	c := New(Config{Name: "c", Sets: 1, Ways: ways, Latency: 10, MSHREntries: 8}, next)
	return c, next
}

// TestMemoInvalidatedByEviction: once a fill evicts the memoed line, a repeat
// access must miss and go below — the memo may never serve a block the set no
// longer holds.
func TestMemoInvalidatedByEviction(t *testing.T) {
	c, next := memoCache(t, 2)
	a, b, d := mem.Addr(0x0), mem.Addr(0x40), mem.Addr(0x80)
	c.Access(load(a), 0)   // miss, fills way 0
	c.Access(load(a), 200) // hit: arms the memo
	c.Access(load(a), 300) // memo fast path
	if got := len(next.reqs); got != 1 {
		t.Fatalf("next saw %d requests before eviction, want 1", got)
	}
	c.Access(load(b), 400) // fills way 1 (bumps the set generation)
	c.Access(load(d), 600) // evicts a (b is more recent)
	if c.Contains(a) {
		t.Fatal("a still present after conflict fills")
	}
	misses := c.Stats.DemandMisses
	c.Access(load(a), 1000)
	if c.Stats.DemandMisses != misses+1 {
		t.Error("access to evicted memoed block did not miss")
	}
	if got := len(next.reqs); got != 4 {
		t.Errorf("next saw %d requests, want 4 (evicted block must refetch)", got)
	}
}

// TestMemoInvalidationPreservesRecency: the memo fast path skips the LRU
// touch, which is exact only because any other access to the set invalidates
// the memo first. This pins the exactness: after memo hits on a, a hit on b
// must invalidate the memo so the following hit on a goes through the full
// path and bumps a's recency — the next fill then evicts b, not a.
func TestMemoInvalidationPreservesRecency(t *testing.T) {
	c, _ := memoCache(t, 2)
	a, b, d := mem.Addr(0x0), mem.Addr(0x40), mem.Addr(0x80)
	c.Access(load(a), 0)
	c.Access(load(b), 200)
	c.Access(load(a), 400) // hit: arms the memo
	c.Access(load(a), 500) // memo fast path (no LRU touch)
	c.Access(load(b), 600) // touches b, invalidates the memo
	c.Access(load(a), 700) // full hit path: a becomes MRU again
	c.Access(load(d), 800) // must evict b, the older touch
	if !c.Contains(a) {
		t.Error("a evicted: memo hit failed to restore recency after invalidation")
	}
	if c.Contains(b) {
		t.Error("b survived: victim selection diverged from true LRU order")
	}
}

// TestMemoStoreDirtyReachesWriteback: a store served by the memo fast path
// must still mark the line dirty, so its eventual eviction writes back.
func TestMemoStoreDirtyReachesWriteback(t *testing.T) {
	c, next := memoCache(t, 1)
	a, b := mem.Addr(0x0), mem.Addr(0x40)
	c.Access(load(a), 0)
	c.Access(load(a), 200)                                 // arms the memo
	c.Access(&mem.Request{PAddr: a, Type: mem.Store}, 300) // memo path: dirty
	c.Access(load(b), 400)                                 // evicts a
	if c.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
	var wb int
	for _, r := range next.reqs {
		if r.Type == mem.Writeback && mem.BlockAlign(r.PAddr) == a {
			wb++
		}
	}
	if wb != 1 {
		t.Errorf("next saw %d writebacks of a, want 1", wb)
	}
}

// TestMemoPrefetchSilentDrop: prefetching the memoed block is a silent drop —
// no stats movement, no downstream traffic, and the line stays resident.
func TestMemoPrefetchSilentDrop(t *testing.T) {
	c, next := memoCache(t, 2)
	a := mem.Addr(0x0)
	c.Access(load(a), 0)
	c.Access(load(a), 200) // arms the memo
	stats, reqs := c.Stats, len(next.reqs)
	done := c.Access(&mem.Request{PAddr: a, Type: mem.Prefetch}, 300)
	if done != 310 {
		t.Errorf("prefetch drop completion = %d, want 310 (lookup latency only)", done)
	}
	if c.Stats != stats {
		t.Errorf("silent prefetch drop moved stats:\nbefore %+v\nafter  %+v", stats, c.Stats)
	}
	if len(next.reqs) != reqs {
		t.Error("silent prefetch drop reached the next level")
	}
	if !c.Contains(a) {
		t.Error("memoed block gone after prefetch drop")
	}
}

// TestMemoNotArmedWithAccessObserver: levels with an OnAccess consumer (the
// prefetch engine) must never take the memo fast path — every demand access
// there has to reach the observer.
func TestMemoNotArmedWithAccessObserver(t *testing.T) {
	c, _ := memoCache(t, 2)
	obs := &recordingObserver{}
	c.SetObserver(obs)
	a := mem.Addr(0x0)
	c.Access(load(a), 0)
	c.Access(load(a), 200)
	c.Access(load(a), 300)
	c.Access(load(a), 400)
	if got := len(obs.accesses); got != 4 {
		t.Errorf("observer saw %d accesses, want 4 (memo must stay disarmed)", got)
	}
}
