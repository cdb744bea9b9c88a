// Package core implements the paper's contribution: the Page-size
// Propagation Module (PPM) that carries the page size of a missed block from
// the L1D's address-translation metadata to the L2 prefetcher via one extra
// MSHR bit, the page-size-aware prefetcher variants built on it (PSA,
// PSA-2MB), and the composite set-dueling prefetcher (PSA-SD) that
// dynamically enables the better of the two, together with the alternative
// selection-logic implementations evaluated in Figure 11.
//
// The Engine sits beside the L2: it observes every L2 access, consults the
// PPM bit (or a page-size oracle for the Magic variants), runs the configured
// prefetcher variant, enforces the page-boundary policy on every candidate,
// and issues the survivors into the L2 (or LLC, per candidate confidence).
// Boundary-discarded candidates that would have been safe — crossings of a
// 4KB boundary while the block resides in a 2MB page — are counted, giving
// the paper's Figure 2 statistic.
package core

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/prefetch"
)

// Variant selects the page-size exploitation scheme wrapped around a base
// prefetcher.
type Variant int

// Variants, mirroring the paper's nomenclature.
const (
	// Original is the baseline: no page-size information, prefetching always
	// stops at 4KB physical page boundaries.
	Original Variant = iota
	// PSA exploits PPM: prefetching stops at the residing page's boundary
	// (4KB or 2MB) with no change to the prefetcher's design.
	PSA
	// PSA2MB additionally indexes the prefetcher's page-indexed structures
	// with 2MB pages (Section IV-B1).
	PSA2MB
	// PSASD is the composite: PSA and PSA-2MB compete under set dueling with
	// both training on all accesses (SD-Proposed, the paper's design).
	PSASD
	// PSAMagic is PSA with an oracle page size instead of the PPM bit
	// (Section III-B1's SPP-PSA-Magic). In this simulator the PPM bit always
	// matches the oracle for data accesses, so results coincide with PSA;
	// the variant exists to reproduce Figures 4 and 5 faithfully.
	PSAMagic
	// PSAMagic2MB is PSA2MB with the oracle (Figure 5's SPP-PSA-Magic-2MB).
	PSAMagic2MB
	// SDStandard is PSASD but trains each competitor only when selected, the
	// original Set-Dueling discipline (Figure 11's SD-Standard).
	SDStandard
	// SDPageSize blindly selects PSA for 4KB-resident blocks and PSA-2MB for
	// 2MB-resident blocks (Figure 11's SD-Page-Size).
	SDPageSize
	// ISOStorage is Original with the prefetcher's storage budget doubled,
	// isolating capacity from page-size awareness (Figure 11's ISO bar).
	ISOStorage
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Original:
		return "original"
	case PSA:
		return "PSA"
	case PSA2MB:
		return "PSA-2MB"
	case PSASD:
		return "PSA-SD"
	case PSAMagic:
		return "PSA-Magic"
	case PSAMagic2MB:
		return "PSA-Magic-2MB"
	case SDStandard:
		return "SD-Standard"
	case SDPageSize:
		return "SD-Page-Size"
	case ISOStorage:
		return "ISO-Storage"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// ParseVariant resolves a variant name: the String form of any variant, or
// the CLI aliases psim has always accepted ("psa-sd", "magic", "iso", ...).
// The empty string parses as Original.
func ParseVariant(s string) (Variant, error) {
	switch strings.ToLower(s) {
	case "", "original":
		return Original, nil
	case "psa":
		return PSA, nil
	case "psa-2mb", "psa2mb":
		return PSA2MB, nil
	case "psa-sd", "psasd":
		return PSASD, nil
	case "psa-magic", "magic":
		return PSAMagic, nil
	case "psa-magic-2mb", "magic-2mb":
		return PSAMagic2MB, nil
	case "sd-standard":
		return SDStandard, nil
	case "sd-page-size":
		return SDPageSize, nil
	case "iso", "iso-storage":
		return ISOStorage, nil
	}
	return 0, fmt.Errorf("unknown variant %q", s)
}

// Prefetcher IDs used in the set-dueling annotation bit. The voteFlag marks
// blocks whose trigger access fell in a leader set: only those update Csel
// (exactly as in set dueling for replacement, where only leader-set events
// vote); the annotation is still needed because the prefetched block may land
// in a different set than its trigger (Section IV-B2).
const (
	prefA    uint8 = 1 // the 4KB-indexed competitor (PSA)
	prefB    uint8 = 2 // the 2MB-indexed competitor (PSA-2MB)
	prefMask uint8 = 3
	voteFlag uint8 = 4
)

// Oracle reports the true size of the physical page containing an address;
// the allocator provides it. It backs the Magic variants and the Figure 2
// missed-opportunity accounting.
type Oracle func(mem.Addr) mem.PageSize

// Translator resolves a virtual candidate address to its physical address
// and residing page size. Implementations probe the TLBs with hit/miss
// statistics restored (a hit refreshes recency) and must never walk the page
// table: ok is false when the translation is not TLB-resident, and the engine
// then drops the candidate.
// The assembled system wires vm.MMU.ResidentTranslate; a nil translator
// restricts virtual candidates to the trigger's own 4KB page, whose frame is
// known from the trigger.
type Translator func(v mem.Addr) (paddr mem.Addr, size mem.PageSize, ok bool)

// Stats aggregates the engine's counters.
type Stats struct {
	Proposed          uint64 // candidates proposed by the prefetcher(s)
	Issued            uint64 // candidates that passed the boundary policy
	DiscardedBoundary uint64 // dropped at the enforced boundary
	// DiscardedSafe counts drops that crossed a 4KB boundary while the block
	// resides in a 2MB page — prefetches that page-size awareness would have
	// saved (the probability of Figure 2 is DiscardedSafe/Proposed).
	DiscardedSafe uint64
	SelectedA     uint64 // follower accesses handled by Pref-PSA
	SelectedB     uint64 // follower accesses handled by Pref-PSA-2MB
	QueueDropped  uint64 // candidates dropped at a full prefetch queue

	// CrossedPage4K counts issued prefetches whose target lies outside the
	// trigger's 4KB page — exactly the prefetches page-size awareness
	// unlocks, and the core signal behind the paper's coverage gains.
	// Virtual-side crossings (translated VA candidates) land here too, so
	// PPM physical crossing and VA crossing share one telemetry axis.
	CrossedPage4K uint64
	// VAIssued counts issued prefetches that originated as virtual-address
	// candidates (translated before issue); DiscardedUntranslated counts
	// virtual candidates dropped because the target page's translation was
	// not TLB-resident — the probe gate that keeps VA prefetching from ever
	// forcing a page walk.
	VAIssued              uint64
	DiscardedUntranslated uint64
	// PPM4K/PPM2M/PPM1G count trigger accesses whose PPM bit carried each
	// page size to the engine (propagations by page size).
	PPM4K, PPM2M, PPM1G uint64
}

// DiscardProbability returns the Figure 2 statistic.
func (s *Stats) DiscardProbability() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.DiscardedSafe) / float64(s.Proposed)
}

// CselBits is the width of the set-dueling selection counter (Section IV-B2).
const CselBits = 3

// LeaderSetsPerPrefetcher is the number of L2 sets dedicated to each
// competing prefetcher (Section IV-B2).
const LeaderSetsPerPrefetcher = 32

// Engine drives a page-size-aware prefetching variant at the L2.
type Engine struct {
	variant Variant
	l2      *cache.Cache
	llc     *cache.Cache
	oracle  Oracle
	core    int

	// translator resolves virtual candidates (TLB-probe-gated); nil outside
	// an assembled system.
	translator Translator

	// pA is the 4KB-indexed prefetcher; pB the 2MB-indexed one (nil unless
	// the variant duels or is PSA2MB/Magic2MB, which use only pB).
	pA, pB prefetch.Prefetcher

	csel        int // saturating selector, MSB picks the follower prefetcher
	leaderEvery int // one A-leader and one B-leader per this many sets

	// lastIssue serialises prefetch injection: the prefetch queue drains at
	// one request per cycle, so a lookahead burst trickles into the
	// hierarchy instead of hitting the DRAM banks in one instant. The queue
	// is finite: candidates that would sit more than PQDepth cycles behind
	// the trigger are dropped, as a full hardware prefetch queue would do.
	lastIssue mem.Cycle

	// PQDepth bounds the prefetch-queue backlog in cycles; candidates that
	// would sit further behind their trigger are dropped, as a full hardware
	// prefetch queue would. Set by New to DefaultPQDepth; override before
	// first use for ablation studies.
	PQDepth mem.Cycle

	// pfPool supplies the scratch request for issued prefetches: each
	// candidate's Access completes synchronously before the next candidate is
	// considered, so one entry suffices.
	pfPool mem.RequestPool
	// issueFn is the persistent candidate sink handed to Prefetcher.Operate;
	// the per-call trigger state lives in opCtx/opSize/opID. operate is not
	// reentrant (prefetch requests never fire OnAccess), so one set of fields
	// suffices and the hot path allocates no closure.
	issueFn func(prefetch.Candidate)
	opCtx   prefetch.Context
	opSize  mem.PageSize
	opID    uint8

	Stats Stats
}

// DefaultPQDepth is the default prefetch-queue backlog bound in cycles.
const DefaultPQDepth = 48

// New builds an engine for the given variant over the factory. l2 and llc
// are the caches the engine issues into; oracle may be nil (Figure 2
// accounting and Magic variants then treat every page as 4KB).
func New(factory prefetch.Factory, v Variant, l2, llc *cache.Cache, oracle Oracle, coreID int) *Engine {
	e := &Engine{
		variant: v,
		l2:      l2,
		llc:     llc,
		oracle:  oracle,
		core:    coreID,
		csel:    1<<(CselBits-1) - 1, // start just below the MSB: followers begin on the safer Pref-PSA
		PQDepth: DefaultPQDepth,
	}
	e.issueFn = e.issueCandidate
	switch v {
	case Original, PSA, PSAMagic, ISOStorage:
		e.pA = factory(mem.PageBits4K)
	case PSA2MB, PSAMagic2MB:
		e.pB = factory(mem.PageBits2M)
	case PSASD, SDStandard, SDPageSize:
		e.pA = factory(mem.PageBits4K)
		e.pB = factory(mem.PageBits2M)
	default:
		panic(fmt.Sprintf("core: unknown variant %v", v))
	}
	groups := l2.Sets() / LeaderSetsPerPrefetcher
	if groups < 2 {
		groups = 2 // degenerate small caches: half the sets lead each way
	}
	e.leaderEvery = groups
	return e
}

// Variant returns the engine's configured variant.
func (e *Engine) Variant() Variant { return e.variant }

// SetTranslator installs the virtual-candidate translator. Call before the
// first access; the engine never mutates it afterwards.
func (e *Engine) SetTranslator(tr Translator) { e.translator = tr }

// Csel returns the current selection counter (for tests and diagnostics).
func (e *Engine) Csel() int { return e.csel }

// PrefersB reports whether the dueling selector currently favours the
// 2MB-indexed competitor (the MSB of Csel) — the "PSA-SD winner" telemetry
// series samples this at epoch boundaries.
func (e *Engine) PrefersB() bool { return e.csel>>(CselBits-1) != 0 }

// leaderOf classifies an L2 set: prefA leader, prefB leader, or 0 (follower).
func (e *Engine) leaderOf(set int) uint8 {
	switch set % e.leaderEvery {
	case 0:
		return prefA
	case 1:
		return prefB
	}
	return 0
}

// effectiveSize returns the page size the variant is allowed to assume for
// the access, and whether that knowledge is real (PPM/oracle) or the 4KB
// default.
func (e *Engine) effectiveSize(req *mem.Request) mem.PageSize {
	switch e.variant {
	case Original, ISOStorage:
		return mem.Page4K // no page-size knowledge: hard 4KB boundary
	case PSAMagic, PSAMagic2MB:
		if e.oracle != nil {
			return e.oracle(req.PAddr)
		}
		return mem.Page4K
	default:
		// PPM: the page-size bit travels with the request (propagated from
		// the L1D MSHR on the miss that produced this L2 access).
		if req.PageSizeKnown {
			return req.PageSize
		}
		return mem.Page4K
	}
}

// OnAccess implements cache.Observer for the L2: run the variant's
// prefetcher(s) and issue surviving candidates.
func (e *Engine) OnAccess(info cache.AccessInfo) {
	req := info.Req
	if req.Type != mem.Load && req.Type != mem.Store {
		return // prefetchers train on demand data accesses only
	}
	if req.PageSizeKnown {
		switch req.PageSize {
		case mem.Page2M:
			e.Stats.PPM2M++
		case mem.Page1G:
			e.Stats.PPM1G++
		default:
			e.Stats.PPM4K++
		}
	}
	size := e.effectiveSize(req)
	va := req.VAddr
	if va == 0 {
		// Harnesses without translation leave VAddr unset; virtual-side
		// prefetchers then see the physical stream as an identity mapping.
		va = req.PAddr
	}
	ctx := prefetch.Context{
		Addr:     mem.BlockAlign(req.PAddr),
		VAddr:    mem.BlockAlign(va),
		PC:       req.PC,
		Hit:      info.Hit,
		Type:     req.Type,
		PageSize: size,
		At:       info.At,
	}
	if !info.Hit {
		// Give reject-table learners their missed-opportunity signal.
		notifyDemandMiss(e.pA, ctx.Addr)
		notifyDemandMiss(e.pB, ctx.Addr)
	}

	switch e.variant {
	case Original, PSA, PSAMagic, ISOStorage:
		e.operate(e.pA, prefA, ctx, size)
	case PSA2MB, PSAMagic2MB:
		e.operate(e.pB, prefB, ctx, size)
	case PSASD:
		sel := e.selectFor(info.Set)
		id := sel
		if e.leaderOf(info.Set) != 0 {
			id |= voteFlag // only leader-set-triggered prefetches vote
		}
		if sel == prefA {
			e.operate(e.pA, id, ctx, size)
			e.pB.Train(ctx) // both train on all accesses (SD-Proposed)
		} else {
			e.operate(e.pB, id, ctx, size)
			e.pA.Train(ctx)
		}
	case SDStandard:
		// Original Set-Dueling: only the selected prefetcher trains.
		sel := e.selectFor(info.Set)
		id := sel
		if e.leaderOf(info.Set) != 0 {
			id |= voteFlag
		}
		if sel == prefA {
			e.operate(e.pA, id, ctx, size)
		} else {
			e.operate(e.pB, id, ctx, size)
		}
	case SDPageSize:
		// Blind page-size selection; both keep training. No Csel, no votes.
		if size == mem.Page2M {
			e.operate(e.pB, prefB, ctx, size)
			e.pA.Train(ctx)
		} else {
			e.operate(e.pA, prefA, ctx, size)
			e.pB.Train(ctx)
		}
	}
}

// selectFor returns which competitor handles an access to the given L2 set.
func (e *Engine) selectFor(set int) uint8 {
	if lead := e.leaderOf(set); lead != 0 {
		return lead
	}
	if e.csel>>(CselBits-1) == 0 {
		e.Stats.SelectedA++
		return prefA
	}
	e.Stats.SelectedB++
	return prefB
}

// operate runs one prefetcher and funnels its candidates through the
// boundary policy into the caches, each dispatched the moment it is
// proposed.
func (e *Engine) operate(p prefetch.Prefetcher, id uint8, ctx prefetch.Context, size mem.PageSize) {
	e.opCtx, e.opSize, e.opID = ctx, size, id
	// Candidates must be dispatched the moment they are proposed, never
	// batched to the end of Operate: issuing a prefetch can evict a line
	// whose OnPrefetchUnused feedback synchronously retrains the proposing
	// prefetcher (ppf's perceptron, spp's confidence tables), and the next
	// candidate in the same lookahead burst must be classified against those
	// updated weights. Deferring the drain reorders that feedback loop and
	// changes simulation results (ppf proposal counts move; pinned by
	// testdata/golden_matrix.txt in internal/experiments).
	p.Operate(ctx, e.issueFn)
}

// issueCandidate vets one proposed candidate against the boundary policy and
// issues survivors into the caches. It is the body of the candidate sink
// operate hands to the prefetcher; the trigger context rides in opCtx/opSize/
// opID so no closure is allocated per access.
func (e *Engine) issueCandidate(c prefetch.Candidate) {
	trigger := e.opCtx.Addr
	size := e.opSize
	e.Stats.Proposed++
	paddr := c.Addr
	psize := size
	var vaddr mem.Addr
	if c.Virtual {
		// Virtual-side candidate: the boundary policy and translation run in
		// virtual address space. Variants without page-size machinery stop at
		// the trigger's 4KB virtual page; every other variant ranges over the
		// 2MB generation region, gated not by the PPM bit but by the
		// candidate page's own translation being TLB-resident — the VA-side
		// answer to the same 4KB boundary problem.
		vtrig := e.opCtx.VAddr
		crossesVA := !mem.SamePage(vtrig, c.Addr, mem.Page4K)
		hardVA := e.variant == Original || e.variant == ISOStorage
		if (crossesVA && hardVA) || !prefetch.InGenLimit(vtrig, c.Addr) {
			e.Stats.DiscardedBoundary++
			return
		}
		if !crossesVA {
			// Same 4KB virtual page as the trigger: virtual and physical
			// addresses share the page offset, so the trigger's own frame
			// resolves the candidate without a probe.
			paddr = mem.PageBase(trigger, mem.Page4K) | (c.Addr & (mem.PageSize4K - 1))
		} else {
			var ok bool
			if e.translator != nil {
				paddr, psize, ok = e.translator(c.Addr)
			}
			if !ok {
				e.Stats.DiscardedUntranslated++
				return
			}
			paddr = mem.BlockAlign(paddr)
		}
		vaddr = c.Addr
	} else if !mem.SamePage(trigger, c.Addr, size) {
		// The candidate crosses the enforced boundary: discard. If the
		// block actually resides in a 2MB page and the candidate stays
		// inside it, page-size awareness would have saved this prefetch.
		e.Stats.DiscardedBoundary++
		if e.oracle != nil && size == mem.Page4K {
			if real := e.oracle(trigger); real != mem.Page4K && mem.SamePage(trigger, c.Addr, real) {
				e.Stats.DiscardedSafe++
			}
		}
		return
	}
	// Candidates already present (or in flight) at the target level are
	// dropped before consuming a prefetch-queue slot.
	if e.l2.Contains(paddr) || (!c.FillL2 && e.llc.Contains(paddr)) {
		return
	}
	e.Stats.Issued++
	if c.Virtual {
		e.Stats.VAIssued++
	}
	crossed := !mem.SamePage(trigger, paddr, mem.Page4K)
	if crossed {
		e.Stats.CrossedPage4K++
	}
	at := e.opCtx.At
	if e.lastIssue >= at {
		at = e.lastIssue + 1
	}
	if at-e.opCtx.At > e.PQDepth {
		e.Stats.QueueDropped++
		return
	}
	e.lastIssue = at
	if e.l2.TryDropPrefetch(at) {
		// The L2's MSHR drop watermark proves this prefetch (absent per the
		// Contains probe above) cannot allocate outside the demand reserve:
		// its only effect is the drop counter, already recorded, so skip
		// building the request and walking the access path. During a
		// lookahead burst under MSHR saturation this is most candidates.
		return
	}
	req := e.pfPool.GetDirty()
	*req = mem.Request{
		PAddr:         paddr,
		VAddr:         vaddr,
		PC:            e.opCtx.PC,
		Type:          mem.Prefetch,
		Core:          e.core,
		PageSize:      psize,
		PageSizeKnown: true,
		FillL2:        c.FillL2,
		PrefID:        e.opID,
		CrossedPage:   crossed,
	}
	if c.FillL2 {
		e.l2.Access(req, at)
	} else {
		e.l2.AccessNoFill(req, at)
	}
}

// OnPrefetchUseful implements cache.Observer: update Csel from the
// annotation bit (leader-set-triggered prefetches only) and forward
// usefulness feedback to the issuer.
func (e *Engine) OnPrefetchUseful(block mem.Addr, prefID uint8, _ int) {
	votes := prefID&voteFlag != 0
	switch prefID & prefMask {
	case prefA:
		if votes && e.csel > 0 {
			e.csel--
		}
		notifyUseful(e.pA, block)
	case prefB:
		if votes && e.csel < 1<<CselBits-1 {
			e.csel++
		}
		notifyUseful(e.pB, block)
	}
}

// OnPrefetchUnused implements cache.Observer.
func (e *Engine) OnPrefetchUnused(block mem.Addr, prefID uint8, _ int) {
	switch prefID & prefMask {
	case prefA:
		notifyUnused(e.pA, block)
	case prefB:
		notifyUnused(e.pB, block)
	}
}

func notifyUseful(p prefetch.Prefetcher, block mem.Addr) {
	if fr, ok := p.(prefetch.FeedbackReceiver); ok {
		fr.PrefetchUseful(block)
	}
}

func notifyUnused(p prefetch.Prefetcher, block mem.Addr) {
	if fr, ok := p.(prefetch.FeedbackReceiver); ok {
		fr.PrefetchUnused(block)
	}
}

func notifyDemandMiss(p prefetch.Prefetcher, block mem.Addr) {
	if p == nil {
		return
	}
	if fr, ok := p.(prefetch.FeedbackReceiver); ok {
		fr.DemandMiss(block)
	}
}

// LLCFeedback adapts the engine as an LLC observer that forwards only
// prefetch-outcome feedback (the prefetcher lives at the L2; LLC demand
// accesses must not retrain it). At a shared LLC each event is routed to the
// issuing core's engine.
type LLCFeedback struct {
	cache.NopObserver
	// Engines maps core ID to that core's L2 prefetch engine.
	Engines []*Engine
}

// WantsOnAccess implements cache.AccessSink: the embedded no-op OnAccess
// consumes nothing, so the LLC can skip per-access dispatch entirely (and
// arm its line-hit memo).
func (f *LLCFeedback) WantsOnAccess() bool { return false }

// OnPrefetchUseful implements cache.Observer. LLC outcomes train the
// prefetchers (accuracy throttles, perceptron weights) but do not vote in
// Csel: the paper's annotation bit lives on L2 blocks only.
func (f *LLCFeedback) OnPrefetchUseful(block mem.Addr, prefID uint8, core int) {
	if e := f.engine(core); e != nil {
		switch prefID & prefMask {
		case prefA:
			notifyUseful(e.pA, block)
		case prefB:
			notifyUseful(e.pB, block)
		}
	}
}

// OnPrefetchUnused implements cache.Observer.
func (f *LLCFeedback) OnPrefetchUnused(block mem.Addr, prefID uint8, core int) {
	if e := f.engine(core); e != nil {
		switch prefID & prefMask {
		case prefA:
			notifyUnused(e.pA, block)
		case prefB:
			notifyUnused(e.pB, block)
		}
	}
}

func (f *LLCFeedback) engine(core int) *Engine {
	if core >= 0 && core < len(f.Engines) {
		return f.Engines[core]
	}
	return nil
}
