// Package cache implements the set-associative cache substrate: tag arrays
// with LRU replacement, Miss Status Holding Registers (MSHRs) that bound
// outstanding misses and merge requests to in-flight blocks, prefetch fills
// with per-line provenance bits (used by the paper's set-dueling annotation),
// and observer hooks through which the prefetching engine in internal/core
// watches accesses and receives usefulness feedback.
//
// Timing model: Access computes a completion cycle by chaining through the
// next-level Port. Resource contention (MSHR occupancy, lower-level banks and
// buses) is modelled with next-free times, which preserves queueing behaviour
// while letting the simulator skip idle cycles.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// ReplPolicy selects the replacement policy of a cache.
type ReplPolicy uint8

// Replacement policies. The paper's evaluation uses LRU at every level; the
// alternatives exist to show the page-size machinery is replacement-agnostic.
const (
	// ReplLRU is least-recently-used (the evaluation default, Table I).
	ReplLRU ReplPolicy = iota
	// ReplSRRIP is static re-reference interval prediction (2-bit RRPV).
	ReplSRRIP
	// ReplRandom picks victims pseudo-randomly.
	ReplRandom
)

// String implements fmt.Stringer.
func (p ReplPolicy) String() string {
	switch p {
	case ReplSRRIP:
		return "srrip"
	case ReplRandom:
		return "random"
	}
	return "lru"
}

// line is one cache block's state.
type line struct {
	block      mem.Addr // block-aligned address (tag + index)
	valid      bool
	dirty      bool
	prefetched bool // filled by a prefetch and not yet demanded
	prefID     uint8
	core       uint8     // core that triggered the fill
	rrpv       uint8     // SRRIP re-reference prediction value
	readyAt    mem.Cycle // fill completion; hits before this merge with the fill
}

// Config describes one cache level.
type Config struct {
	Name        string
	Sets, Ways  int
	Latency     mem.Cycle // tag+data access latency
	MSHREntries int

	// Replacement selects the victim policy (LRU by default).
	Replacement ReplPolicy

	// PromoteLatency enables prefetch-to-demand MSHR promotion: a demand
	// that merges with an in-flight *prefetch* fill re-issues the request
	// downstream at demand priority and completes at the earlier of the
	// prefetch's promised fill and the re-issued demand path (bounded below
	// by issue + Latency + PromoteLatency when there is no next level).
	// Zero disables promotion. Merges with in-flight demand fills are never
	// accelerated.
	PromoteLatency mem.Cycle
}

// Stats aggregates a cache's counters.
type Stats struct {
	Hits, Misses uint64 // all request types
	DemandHits   uint64
	DemandMisses uint64

	PrefetchIssued  uint64 // prefetch requests that allocated an MSHR here
	PrefetchUseful  uint64 // demand hits on prefetched lines
	PrefetchLate    uint64 // demand merged with an in-flight prefetch fill
	PrefetchUnused  uint64 // prefetched lines evicted without a demand hit
	PrefetchDropped uint64 // prefetches dropped for lack of a free MSHR entry

	Writebacks uint64

	// DemandLatencySum accumulates completion−issue for demand accesses so
	// Figure 10's access-latency metric can be derived.
	DemandLatencySum uint64
	DemandCount      uint64
}

// MPKI returns demand misses per kilo-instruction given an instruction count.
func (s *Stats) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(instructions) * 1000
}

// AvgDemandLatency returns the mean demand access latency in cycles.
func (s *Stats) AvgDemandLatency() float64 {
	if s.DemandCount == 0 {
		return 0
	}
	return float64(s.DemandLatencySum) / float64(s.DemandCount)
}

// Accuracy returns useful/(useful+unused) prefetches, the paper's prefetching
// accuracy metric. Late prefetches count as useful.
func (s *Stats) Accuracy() float64 {
	denom := s.PrefetchUseful + s.PrefetchLate + s.PrefetchUnused
	if denom == 0 {
		return 0
	}
	return float64(s.PrefetchUseful+s.PrefetchLate) / float64(denom)
}

// Coverage returns the fraction of would-be demand misses eliminated by
// prefetching: useful / (useful + demand misses).
func (s *Stats) Coverage() float64 {
	denom := float64(s.PrefetchUseful) + float64(s.DemandMisses)
	if denom == 0 {
		return 0
	}
	return float64(s.PrefetchUseful) / denom
}

// AccessInfo is what an Observer sees for each access processed by the cache.
type AccessInfo struct {
	Req  *mem.Request
	Hit  bool
	At   mem.Cycle // issue cycle
	Done mem.Cycle // completion cycle
	Set  int       // set index of the accessed block
}

// Observer receives access and prefetch-feedback events. The prefetching
// engine (internal/core) implements it; all methods are optional via the
// embeddable NopObserver.
type Observer interface {
	// OnAccess fires for every request the cache processes (after hit/miss
	// resolution). Prefetch requests do not generate OnAccess.
	OnAccess(info AccessInfo)
	// OnPrefetchUseful fires when a demand access hits a prefetched line.
	// core is the core that issued the prefetch (relevant at a shared LLC).
	OnPrefetchUseful(block mem.Addr, prefID uint8, core int)
	// OnPrefetchUnused fires when a prefetched line is evicted untouched.
	OnPrefetchUnused(block mem.Addr, prefID uint8, core int)
}

// AccessSink is an optional Observer refinement: an observer whose OnAccess
// is a no-op (a feedback-only observer, like the LLC's prefetch-outcome
// router) returns false from WantsOnAccess, and the cache then skips the
// per-access OnAccess dispatch entirely. A level with no OnAccess consumer is
// also what arms the line-hit memo there. Observers without the method are
// assumed to consume every access.
type AccessSink interface{ WantsOnAccess() bool }

// wantsOnAccess resolves an observer's OnAccess interest (nil: none).
func wantsOnAccess(o Observer) bool {
	if o == nil {
		return false
	}
	if s, ok := o.(AccessSink); ok {
		return s.WantsOnAccess()
	}
	return true
}

// NopObserver implements Observer with no-ops; embed it to implement a
// subset of the interface.
type NopObserver struct{}

// OnAccess implements Observer.
func (NopObserver) OnAccess(AccessInfo) {}

// OnPrefetchUseful implements Observer.
func (NopObserver) OnPrefetchUseful(mem.Addr, uint8, int) {}

// OnPrefetchUnused implements Observer.
func (NopObserver) OnPrefetchUnused(mem.Addr, uint8, int) {}

// LifecycleKind classifies a prefetch lifecycle transition.
type LifecycleKind uint8

// Lifecycle transitions reported through LifecycleObserver.
const (
	// LifeFill is an issued prefetch allocating here: At is the issue cycle,
	// Done the fill-completion cycle.
	LifeFill LifecycleKind = iota + 1
	// LifeUse is the first demand hit on a prefetched line (Late: the hit
	// merged with the still-in-flight fill).
	LifeUse
	// LifeEvict is a prefetched line evicted without a demand hit.
	LifeEvict
	// LifeDrop is a prefetch dropped at the MSHR demand reserve.
	LifeDrop
)

// LifecycleEvent is one prefetch lifecycle transition at a cache.
type LifecycleEvent struct {
	Kind  LifecycleKind
	Block mem.Addr
	At    mem.Cycle // issue cycle (fill/drop) or event cycle (use/evict)
	Done  mem.Cycle // fill completion (fill events only)
	Late  bool      // use merged with the in-flight fill
	// Req is the request driving the transition: the prefetch itself for
	// fill/drop, the demand access for use, the fill triggering the eviction
	// for evict. It carries the page-size and boundary-crossing attribution.
	Req    *mem.Request
	PrefID uint8
	Core   uint8
}

// LifecycleObserver is an optional extension of Observer: an observer that
// also implements it receives prefetch lifecycle events. The cache resolves
// the type assertion once in SetObserver, so the hot path pays only a nil
// check when tracing is off.
type LifecycleObserver interface {
	OnPrefetchLifecycle(cache string, ev LifecycleEvent)
}

// tee fans observer callbacks out to several observers in order; lifecycle
// events go to the children that implement LifecycleObserver, OnAccess to
// the children that declared interest in it.
type tee struct {
	obs  []Observer
	acc  []Observer
	life []LifecycleObserver
}

// Tee combines observers into one (nil entries are skipped). A single
// non-nil observer is returned unwrapped, so the common untraced
// configuration pays no indirection.
func Tee(os ...Observer) Observer {
	t := &tee{}
	for _, o := range os {
		if o == nil {
			continue
		}
		t.obs = append(t.obs, o)
		if wantsOnAccess(o) {
			t.acc = append(t.acc, o)
		}
		if lo, ok := o.(LifecycleObserver); ok {
			t.life = append(t.life, lo)
		}
	}
	switch {
	case len(t.obs) == 0:
		return nil
	case len(t.obs) == 1:
		return t.obs[0] // SetObserver re-resolves LifecycleObserver itself
	}
	return t
}

// WantsOnAccess implements AccessSink: a tee consumes accesses only when one
// of its children does.
func (t *tee) WantsOnAccess() bool { return len(t.acc) > 0 }

// OnAccess implements Observer.
func (t *tee) OnAccess(info AccessInfo) {
	for _, o := range t.acc {
		o.OnAccess(info)
	}
}

// OnPrefetchUseful implements Observer.
func (t *tee) OnPrefetchUseful(block mem.Addr, prefID uint8, core int) {
	for _, o := range t.obs {
		o.OnPrefetchUseful(block, prefID, core)
	}
}

// OnPrefetchUnused implements Observer.
func (t *tee) OnPrefetchUnused(block mem.Addr, prefID uint8, core int) {
	for _, o := range t.obs {
		o.OnPrefetchUnused(block, prefID, core)
	}
}

// OnPrefetchLifecycle implements LifecycleObserver.
func (t *tee) OnPrefetchLifecycle(cache string, ev LifecycleEvent) {
	for _, o := range t.life {
		o.OnPrefetchLifecycle(cache, ev)
	}
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg   Config
	lines []line // sets × ways
	// tags mirrors lines[i].block for valid ways (tagInvalid otherwise) in a
	// dense parallel array: the lookup scan touches 8 contiguous bytes per
	// way instead of a whole line struct, which is most of what find costs on
	// miss-heavy workloads.
	tags []mem.Addr
	// lrus mirrors each way's last-touch tick in the same dense layout, so the
	// LRU victim scan reads 8 contiguous bytes per way like the tag scan does.
	lrus []uint64
	tick uint64

	// setMask is Sets-1 when Sets is a power of two, replacing the modulo in
	// SetIndex with a mask on the hot path; zero selects the generic path
	// (the shared LLC's sets scale with core count and may not stay pow2).
	setMask mem.Addr

	// wbPool supplies the scratch request for dirty-victim writebacks: the
	// downstream Access completes synchronously and never retains the request.
	wbPool mem.RequestPool
	// prPool supplies the scratch copy for prefetch-promotion re-issues, the
	// same synchronous-downstream lifetime as wbPool.
	prPool mem.RequestPool

	// mshrFree holds the next-free cycle of each MSHR entry. A request that
	// finds every entry busy stalls until the earliest one frees — this is
	// how MSHR pressure throttles both demands and prefetches (Fig. 12A).
	mshrFree []mem.Cycle
	// pfDropUntil is a proven drop watermark for the prefetch reserve check:
	// when the last full scan found free ≤ reserve, no entry frees before the
	// earliest busy completion seen, and slot values only ever grow — so any
	// prefetch arriving before that cycle must drop too, without rescanning.
	pfDropUntil mem.Cycle
	// mshrMaxDone is the largest completion time ever written into mshrFree
	// (monotone upper bound on every slot): a request at or past it proves the
	// whole pool free without a scan.
	mshrMaxDone mem.Cycle

	// lastMissBlock/lastMissTick memoize the most recent failed lookup. Tags
	// change only in fill, which bumps tick, so an equal (block, tick) pair
	// proves the block is still absent: the Contains probe right before a
	// prefetch issue makes the issue's own lookup a guaranteed miss, and the
	// memo skips that second set scan.
	lastMissBlock mem.Addr
	lastMissTick  uint64
	// mru[s] is the way of set s's most recent hit or fill. Tags are unique
	// within a set, so probing it first returns the same index as the scan —
	// and consecutive accesses inside one block (the common case for demand
	// streams) resolve in a single compare.
	mru []int32

	// partial packs one hashed byte per way into uint64 words (partialWords
	// words per set), so a probe rejects a whole set with one XOR and a SWAR
	// zero-byte test and verifies only flagged candidate ways against the full
	// tag array.
	partial      []uint64
	partialWords int

	// setGen[s] counts every replacement-state mutation of set s (any touch
	// or fill). The hit memo records the generation it was formed under; an
	// unchanged generation proves nothing in the set moved since, so the
	// memoed way, its recency, and the victim ordering are all still exact.
	setGen []uint64
	// memoBlock..memoReady are the line-grain hit memo (levels with no
	// OnAccess consumer): a completed demand hit on a non-prefetched
	// line records (block, set, way, generation), and while the generation
	// holds, repeat accesses to the same block short-circuit the tag probe,
	// the replacement update, and the observer dispatch. Skipping the LRU
	// tick is exact: a valid memo proves the set untouched since formation,
	// so the memoed way stays the set's unique most-recent way — and the
	// victim scan only compares recencies within a set — whether or not the
	// repeat hits bump it further.
	memoBlock mem.Addr
	memoSet   int
	memoGI    int
	memoGen   uint64
	memoReady mem.Cycle

	next mem.Port
	// nextCache is the devirtualized next level, linked at construction when
	// next is itself a *Cache: the miss descent core→L1→L2→LLC then runs
	// through direct calls, and the only interface dispatch left on a miss is
	// the final hop into DRAM.
	nextCache *Cache
	observer  Observer
	// accObs is the observer iff it consumes OnAccess (see AccessSink);
	// feedback-only observers leave it nil and the hot path skips dispatch.
	accObs Observer
	// life is the observer's LifecycleObserver facet, resolved once in
	// SetObserver: the access path pays a nil check, never a type assertion.
	life LifecycleObserver

	rng uint64 // state for ReplRandom

	Stats Stats
}

// New creates a cache over the given next level. next may be nil for leaf
// testing (misses then cost only the local latency).
func New(cfg Config, next mem.Port) *Cache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %d×%d", cfg.Name, cfg.Sets, cfg.Ways))
	}
	if cfg.MSHREntries <= 0 {
		panic(fmt.Sprintf("cache %s: MSHR entries must be positive", cfg.Name))
	}
	partialWords := (cfg.Ways + 7) / 8
	c := &Cache{
		cfg:          cfg,
		lines:        make([]line, cfg.Sets*cfg.Ways),
		tags:         make([]mem.Addr, cfg.Sets*cfg.Ways),
		lrus:         make([]uint64, cfg.Sets*cfg.Ways),
		mshrFree:     make([]mem.Cycle, cfg.MSHREntries),
		mru:          make([]int32, cfg.Sets),
		partial:      make([]uint64, cfg.Sets*partialWords),
		partialWords: partialWords,
		setGen:       make([]uint64, cfg.Sets),
		next:         next,
		rng:          uint64(len(cfg.Name))*0x9e3779b97f4a7c15 + 1,
	}
	c.nextCache, _ = next.(*Cache)
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
	c.lastMissBlock = tagInvalid
	c.memoBlock = tagInvalid
	if cfg.Sets&(cfg.Sets-1) == 0 {
		c.setMask = mem.Addr(cfg.Sets - 1)
	}
	return c
}

// tagInvalid marks an empty way in the tag array; it is never block-aligned,
// so it cannot collide with a real block address.
const tagInvalid = ^mem.Addr(0)

// SetObserver attaches the access/feedback observer. If the observer also
// implements LifecycleObserver it additionally receives prefetch lifecycle
// events; combine observers with Tee to trace alongside a prefetch engine.
func (c *Cache) SetObserver(o Observer) {
	c.observer = o
	c.accObs = nil
	if wantsOnAccess(o) {
		c.accObs = o
	}
	c.life, _ = o.(LifecycleObserver)
}

// SetLifecycleObserver attaches (or, with nil, detaches) the prefetch
// lifecycle sink without touching the access/feedback observer chain. This
// keeps pure lifecycle consumers — the telemetry tracer — off the per-access
// OnAccess dispatch path entirely: they cost a nil check except when a
// prefetched block changes state. It replaces any lifecycle interest the
// regular observer declared.
func (c *Cache) SetLifecycleObserver(lo LifecycleObserver) {
	c.life = lo
}

// MSHRBusy returns how many MSHR entries are occupied at cycle `at` (a
// telemetry gauge: sampled at epoch boundaries it exposes miss-level
// parallelism pressure).
func (c *Cache) MSHRBusy(at mem.Cycle) int {
	busy := 0
	for _, f := range c.mshrFree {
		if f > at {
			busy++
		}
	}
	return busy
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets (used for set-dueling leader mapping).
func (c *Cache) Sets() int { return c.cfg.Sets }

// SetIndex returns the set index for an address.
func (c *Cache) SetIndex(a mem.Addr) int {
	if c.setMask != 0 {
		return int(mem.BlockNumber(a) & c.setMask)
	}
	return int(mem.BlockNumber(a)) % c.cfg.Sets
}

func (c *Cache) setLines(set int) []line {
	return c.lines[set*c.cfg.Ways : (set+1)*c.cfg.Ways]
}

func (c *Cache) find(block mem.Addr) *line {
	return c.findAt(c.SetIndex(block), block)
}

// findAt is find with the set index already computed: the access path derives
// it once per request and reuses it for the lookup, the observer callback, and
// the fill.
func (c *Cache) findAt(si int, block mem.Addr) *line {
	if gi := c.findIdx(si, block); gi >= 0 {
		return &c.lines[gi]
	}
	return nil
}

// findIdx returns the global way index of block in set si, or -1: index form
// of findAt, for paths that also update the dense replacement mirrors.
//
// Probe order: the most-recently-used way first (one load and compare —
// hit-heavy sets resolve here, and the repeat-hit memo in access() already
// absorbed the hottest repeats before this point), then the register-only
// negative memo, then the packed partial array — an eighth of the tag array's
// footprint — so on a miss the full tags are never scanned, only touched to
// verify a candidate.
func (c *Cache) findIdx(si int, block mem.Addr) int {
	base := si * c.cfg.Ways
	if m := base + int(c.mru[si]); c.tags[m] == block {
		return m
	}
	if block == c.lastMissBlock && c.tick == c.lastMissTick {
		return -1
	}
	return c.findIdxPacked(si, base, block)
}

// SWAR constants for the packed partial-tag probe: lane replication and the
// per-byte high bits of the classic zero-byte detector.
const (
	swarLanes = 0x0101010101010101
	swarHigh  = 0x8080808080808080
)

// partialOf hashes a block address to its one-byte partial tag. Any function
// works for correctness (candidates are verified against the full tags); the
// multiplicative hash keeps false-positive verifies rare and is independent
// of the set-index width, so one formula serves every level.
func partialOf(block mem.Addr) uint64 {
	return uint64(block) * 0x9e3779b97f4a7c15 >> 56
}

// findIdxPacked is the packed partial-tag set probe: XOR the set's packed
// partial tags against the replicated probe byte, flag zero bytes with the
// SWAR detector (no false negatives; rare false positives from the borrow
// chain), and verify flagged ways against the full tag array. Tags are unique within
// a set, so at most one verify succeeds and probe order cannot change the
// result.
func (c *Cache) findIdxPacked(si, base int, block mem.Addr) int {
	pat := partialOf(block) * swarLanes
	w0 := si * c.partialWords
	for wi := 0; wi < c.partialWords; wi++ {
		x := c.partial[w0+wi] ^ pat
		m := (x - swarLanes) &^ x & swarHigh
		for m != 0 {
			way := wi<<3 + bits.TrailingZeros64(m)>>3
			if way < c.cfg.Ways && c.tags[base+way] == block {
				c.mru[si] = int32(way)
				return base + way
			}
			m &= m - 1
		}
	}
	c.lastMissBlock, c.lastMissTick = block, c.tick
	return -1
}

// setPartial stores way's partial-tag byte in the packed probe array.
func (c *Cache) setPartial(si, way int, p uint64) {
	i := si*c.partialWords + way>>3
	sh := uint(way&7) * 8
	c.partial[i] = c.partial[i]&^(0xFF<<sh) | p<<sh
}

// Contains reports whether block is present (valid) in the cache, including
// lines whose fill is still in flight.
func (c *Cache) Contains(block mem.Addr) bool {
	return c.find(mem.BlockAlign(block)) != nil
}

// InFlight reports whether block is present but its fill has not completed by
// cycle at.
func (c *Cache) InFlight(block mem.Addr, at mem.Cycle) bool {
	l := c.find(mem.BlockAlign(block))
	return l != nil && l.readyAt > at
}

// TryDropPrefetch accounts a proven MSHR-reserve drop for a prefetch issued
// at cycle `at` whose block is known absent (the caller just probed it):
// when the drop watermark proves the lookup would find the free pool at or
// below the demand reserve — lookup completes before both the proven-drop
// horizon and the earliest possible all-free time — the prefetch's only
// effect is the drop counter, so the caller can skip building the request
// and walking the access path. Returns false (caller issues normally) when
// the drop is not provable or a lifecycle tracer is attached (the drop event
// needs the full request).
func (c *Cache) TryDropPrefetch(at mem.Cycle) bool {
	if c.life != nil {
		return false
	}
	lookupDone := at + c.cfg.Latency
	if lookupDone < c.mshrMaxDone && lookupDone < c.pfDropUntil {
		c.Stats.PrefetchDropped++
		return true
	}
	return false
}

// allocMSHR reserves the earliest-free MSHR entry at or after `at` and
// returns the cycle at which the miss may proceed. The entry is tentatively
// held; the caller must release it by storing the final completion time.
func (c *Cache) allocMSHR(at mem.Cycle) (idx int, start mem.Cycle) {
	if at >= c.mshrMaxDone {
		// Every slot value is ≤ mshrMaxDone, so the whole pool is free and the
		// scan below would return its first entry at `at`.
		return 0, at
	}
	best := 0
	for i, f := range c.mshrFree {
		if f <= at {
			return i, at
		}
		if f < c.mshrFree[best] {
			best = i
		}
	}
	return best, c.mshrFree[best]
}

// victim picks the replacement victim way in a set: an invalid way if any,
// otherwise per the configured policy. si is the set's index; the invalid-way
// scan reads the dense tag mirror (tagInvalid ⇔ !valid) instead of the line
// structs.
func (c *Cache) victim(si int, set []line) int {
	base := si * c.cfg.Ways
	if c.cfg.Replacement == ReplLRU {
		// Invalid ways hold lru 0 and valid ways tick ≥ 1, so one
		// first-strict-min scan over the dense mirror is exactly
		// "first invalid way, else first least-recently-used way".
		v := 0
		lrus := c.lrus[base : base+c.cfg.Ways]
		for i, l := range lrus {
			if l < lrus[v] {
				v = i
			}
		}
		return v
	}
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tagInvalid {
			return i
		}
	}
	switch c.cfg.Replacement {
	case ReplSRRIP:
		// Find a distant-re-reference line, aging the set until one exists.
		for {
			for i := range set {
				if set[i].rrpv >= 3 {
					return i
				}
			}
			for i := range set {
				set[i].rrpv++
			}
		}
	case ReplRandom:
		c.rng = c.rng*6364136223846793005 + 1442695040888963407
		return int(c.rng>>33) % len(set)
	default:
		v := 0
		lrus := c.lrus[base : base+c.cfg.Ways]
		for i, l := range lrus {
			if l < lrus[v] {
				v = i
			}
		}
		return v
	}
}

// touchAt updates replacement state on a hit of the way at global index gi in
// set si. Bumping the set generation invalidates any hit memo formed there.
func (c *Cache) touchAt(si, gi int) {
	c.tick++
	c.lrus[gi] = c.tick
	c.lines[gi].rrpv = 0
	c.setGen[si]++
}

// forward sends a request to the next level: through the devirtualized
// concrete chain when the next level is a cache, the Port interface
// otherwise. Callers have already checked next != nil.
func (c *Cache) forward(req *mem.Request, at mem.Cycle) mem.Cycle {
	if c.nextCache != nil {
		return c.nextCache.access(req, at, true)
	}
	return c.next.Access(req, at)
}

// fill installs block into the cache with the given fill-completion time,
// evicting (and writing back) the victim. The writeback is injected at the
// triggering access's present time `now`, not at the future fill time:
// requests are processed in program order, and future-stamped traffic would
// poison the monotonic next-free state of shared downstream resources.
func (c *Cache) fill(si int, block mem.Addr, readyAt, now mem.Cycle, req *mem.Request) {
	set := c.setLines(si)
	vi := c.victim(si, set)
	v := &set[vi]
	if v.valid {
		if v.prefetched {
			c.Stats.PrefetchUnused++
			if c.observer != nil {
				c.observer.OnPrefetchUnused(v.block, v.prefID, int(v.core))
			}
			if c.life != nil {
				c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
					Kind: LifeEvict, Block: v.block, At: now, Req: req,
					PrefID: v.prefID, Core: v.core,
				})
			}
		}
		if v.dirty {
			c.Stats.Writebacks++
			if c.next != nil {
				wb := c.wbPool.GetDirty()
				*wb = mem.Request{PAddr: v.block, Type: mem.Writeback, Core: req.Core}
				c.forward(wb, now) // occupies downstream bandwidth
			}
		}
	}
	c.tick++
	c.tags[si*c.cfg.Ways+vi] = block
	c.lrus[si*c.cfg.Ways+vi] = c.tick
	c.mru[si] = int32(vi)
	c.setGen[si]++
	c.setPartial(si, vi, partialOf(block))
	*v = line{
		block:      block,
		valid:      true,
		dirty:      req.Type == mem.Store || req.Type == mem.Writeback,
		prefetched: req.Type == mem.Prefetch,
		prefID:     req.PrefID,
		core:       uint8(req.Core),
		rrpv:       2, // SRRIP long re-reference insertion
		readyAt:    readyAt,
	}
}

// Access implements mem.Port. It resolves hit/miss, models MSHR occupancy and
// merging, fills on miss, and returns the completion cycle. Prefetch requests
// follow the same path but never notify OnAccess, hit-drop silently, and — at
// a level where FillL2 is false (L2 directing the fill to the LLC) — the
// caller should use AccessNoFill instead.
func (c *Cache) Access(req *mem.Request, at mem.Cycle) mem.Cycle {
	return c.access(req, at, true)
}

// AccessNoFill behaves like Access but does not install the block in this
// cache on a miss: the request still occupies an MSHR entry here and fills
// every level below. This models L2 prefetches whose confidence directs the
// block into the LLC only.
func (c *Cache) AccessNoFill(req *mem.Request, at mem.Cycle) mem.Cycle {
	return c.access(req, at, false)
}

func (c *Cache) access(req *mem.Request, at mem.Cycle, fillHere bool) mem.Cycle {
	block := mem.BlockAlign(req.PAddr)

	// Line-hit memo: a repeat access to the last demand-hit block, in a set
	// nothing has touched since (generation match) and past the line's fill
	// completion, resolves without the tag probe, the replacement update, or
	// the observer dispatch. Only armed at levels with no OnAccess consumer
	// (every demand access there must otherwise reach the prefetch engine) —
	// see the memo field docs for why skipping the LRU bump is exact.
	if block == c.memoBlock && c.memoGen == c.setGen[c.memoSet] &&
		at >= c.memoReady && c.accObs == nil {
		switch req.Type {
		case mem.Prefetch:
			// Prefetching an already-present block is a silent drop.
			return at + c.cfg.Latency
		case mem.Store, mem.Writeback:
			c.lines[c.memoGI].dirty = true
		}
		if req.Type != mem.Writeback {
			c.Stats.Hits++
			c.Stats.DemandHits++
			c.Stats.DemandLatencySum += uint64(c.cfg.Latency)
			c.Stats.DemandCount++
		}
		return at + c.cfg.Latency
	}

	demand := req.Type.IsDemand() || req.Type == mem.PageWalk

	if req.Type == mem.Writeback {
		// Writebacks update in place on hit or forward below; they carry no
		// completion dependence for the core.
		si := c.SetIndex(block)
		if gi := c.findIdx(si, block); gi >= 0 {
			c.lines[gi].dirty = true
			c.touchAt(si, gi)
			return at + c.cfg.Latency
		}
		if c.next != nil {
			return c.forward(req, at+c.cfg.Latency)
		}
		return at + c.cfg.Latency
	}

	lookupDone := at + c.cfg.Latency
	si := c.SetIndex(block)
	if gi := c.findIdx(si, block); gi >= 0 {
		l := &c.lines[gi]
		done := lookupDone
		merged := l.readyAt > at // fill still in flight: MSHR merge semantics
		if merged && l.readyAt > done {
			done = l.readyAt
			if l.prefetched && demand && c.cfg.PromoteLatency > 0 && c.next != nil &&
				l.readyAt-lookupDone > c.cfg.PromoteLatency {
				// The prefetch is scheduled further out than a fresh demand
				// path: promote it by re-issuing the request downstream as a
				// demand. The re-issue consumes real downstream capacity
				// (mild traffic overcount, but promotion is rare — only
				// deeply queued prefetches qualify), so promotion can never
				// manufacture bandwidth.
				re := c.prPool.Get()
				*re = *req
				if promoted := c.forward(re, lookupDone); promoted < done {
					done = promoted
					l.readyAt = promoted
				}
			}
		}
		c.touchAt(si, gi)
		if req.Type == mem.Store {
			l.dirty = true
		}
		if req.Type == mem.Prefetch {
			// Prefetching an already-present block is a silent drop.
			return done
		}
		c.Stats.Hits++
		if demand {
			c.Stats.DemandHits++
			c.Stats.DemandLatencySum += uint64(done - at)
			c.Stats.DemandCount++
			if l.prefetched {
				l.prefetched = false
				if merged {
					c.Stats.PrefetchLate++
				} else {
					c.Stats.PrefetchUseful++
				}
				if c.observer != nil {
					c.observer.OnPrefetchUseful(block, l.prefID, int(l.core))
				}
				if c.life != nil {
					c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
						Kind: LifeUse, Block: block, At: done, Late: merged,
						Req: req, PrefID: l.prefID, Core: l.core,
					})
				}
			}
			if c.accObs == nil && !merged {
				// Arm the memo for repeat hits: the line is valid, ready, and
				// (after the use accounting above) no longer prefetched.
				c.memoBlock, c.memoSet, c.memoGI = block, si, gi
				c.memoGen = c.setGen[si]
				c.memoReady = l.readyAt
			}
		}
		if c.accObs != nil {
			c.accObs.OnAccess(AccessInfo{Req: req, Hit: true, At: at, Done: done, Set: si})
		}
		return done
	}

	// Miss path: take an MSHR entry (stalling if all are busy), forward the
	// request below, and fill on return. Prefetches never stall demands: a
	// quarter of the MSHR entries is reserved for demand misses, and a
	// prefetch that cannot allocate outside the reserve is dropped, so a
	// lookahead burst cannot head-block the demand stream. The prefetch path
	// folds the reserve count and the allocation into one scan of the pool.
	var idx int
	start := lookupDone
	if req.Type == mem.Prefetch {
		free, firstFree := 0, -1
		reserve := c.cfg.MSHREntries / 4
		if lookupDone >= c.mshrMaxDone {
			// Whole pool provably free: the scan would stop at free = reserve+1
			// with the first entry as the allocation target.
			free, firstFree = reserve+1, 0
		} else if lookupDone >= c.pfDropUntil {
			minBusy := mem.Cycle(1) << 62
			for i, f := range c.mshrFree {
				if f <= lookupDone {
					free++
					if firstFree < 0 {
						firstFree = i
					}
					if free > reserve {
						break // enough free entries proven; exact count not needed
					}
				} else if f < minBusy {
					minBusy = f
				}
			}
			if free <= reserve {
				// Nothing frees before minBusy and slot values only grow, so
				// every prefetch arriving before then drops without a scan.
				c.pfDropUntil = minBusy
			}
		}
		if free <= reserve {
			c.Stats.PrefetchDropped++
			if c.life != nil {
				c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
					Kind: LifeDrop, Block: block, At: at, Req: req,
					PrefID: req.PrefID, Core: uint8(req.Core),
				})
			}
			return lookupDone
		}
		idx = firstFree // free > 0 here: the reserve is at least one entry
	} else {
		idx, start = c.allocMSHR(lookupDone)
	}
	c.Stats.Misses++
	if demand {
		c.Stats.DemandMisses++
	}
	if req.Type == mem.Prefetch {
		c.Stats.PrefetchIssued++
	}
	done := start
	if c.next != nil {
		done = c.forward(req, start)
	}
	c.mshrFree[idx] = done
	if done > c.mshrMaxDone {
		c.mshrMaxDone = done
	}
	if fillHere {
		c.fill(si, block, done, start, req)
	}
	if demand {
		c.Stats.DemandLatencySum += uint64(done - at)
		c.Stats.DemandCount++
	}
	if req.Type == mem.Prefetch && fillHere && c.life != nil {
		// Levels that do not install the block (AccessNoFill) stay silent:
		// the level that fills — the LLC for low-confidence candidates —
		// records its own fill event.
		c.life.OnPrefetchLifecycle(c.cfg.Name, LifecycleEvent{
			Kind: LifeFill, Block: block, At: at, Done: done, Req: req,
			PrefID: req.PrefID, Core: uint8(req.Core),
		})
	}
	if req.Type != mem.Prefetch && c.accObs != nil {
		c.accObs.OnAccess(AccessInfo{Req: req, Hit: false, At: at, Done: done, Set: si})
	}
	return done
}
