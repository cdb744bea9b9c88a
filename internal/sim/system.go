package sim

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/prefetch/ipcp"
	"repro/internal/trace"
	"repro/internal/vm"
)

// coreNode is one core's private slice of the system.
type coreNode struct {
	id        int
	space     *vm.AddressSpace
	codeSpace *vm.AddressSpace
	mmu       *vm.MMU
	l1i       *cache.Cache
	l1d       *cache.Cache
	l2        *cache.Cache
	llc       *cache.Cache
	engine    *core.Engine
	cpu       *cpu.Core
	reader    trace.Reader

	l1Kind  L1Pref
	l1pf    *ipcp.Prefetcher
	candBuf []ipcp.Candidate

	// Scratch request pools for the three request-issuing sites of this core.
	// The access path is synchronous and single-goroutine per system, and the
	// three sites are never live at once within one pool, so each reuses one
	// entry instead of allocating per access.
	demandPool mem.RequestPool
	fetchPool  mem.RequestPool
	l1pfPool   mem.RequestPool
}

// system is a fully assembled machine.
type system struct {
	cfg     Config
	spec    PrefSpec
	alloc   *vm.Allocator
	dramDev *dram.DRAM
	llc     *cache.Cache
	nodes   []*coreNode
}

// newSystem assembles cores sharing one LLC (sets scaled per core) and one
// DRAM. Each core gets its own address space over the shared allocator, its
// own trace reader, and its own prefetch engine.
func newSystem(cfg Config, spec PrefSpec, workloads []trace.Workload, seed uint64) (*system, error) {
	s := &system{cfg: cfg, spec: spec}
	s.alloc = vm.NewAllocator(cfg.PhysBytes, seed)
	s.dramDev = dram.New(cfg.DRAM)

	// Demand merges with in-flight prefetches are promoted to demand
	// priority: they complete no later than a fresh demand miss travelling
	// the remaining path to DRAM.
	dramLat := cfg.DRAM.RowMissLatency + s.dramDev.BurstCycles()
	llcCfg := cfg.LLC
	llcCfg.Replacement = cfg.Replacement
	// Table I specifies the LLC per core (2MB): the shared LLC scales its
	// capacity with the core count, and its MSHR pool grows at 16 entries
	// per additional core beyond the single-core 64 — shared-LLC pressure
	// rises with core count without starving wide machines.
	llcCfg.Sets *= len(workloads)
	if n := len(workloads); n > 4 {
		llcCfg.MSHREntries = llcCfg.MSHREntries * n / 4
	}
	llcCfg.PromoteLatency = dramLat
	if cfg.DisablePromotion {
		llcCfg.PromoteLatency = 0
	}
	s.llc = cache.New(llcCfg, s.dramDev)

	oracle := core.Oracle(s.alloc.PageSizeOf)
	engines := make([]*core.Engine, len(workloads))

	// Walk scratch is per-simulation state, like the allocator: one arena
	// serves every core's walker.
	walkArena := mem.NewRequestArena(0)

	for i, w := range workloads {
		n := &coreNode{id: i, l1Kind: spec.L1}
		n.space = vm.NewAddressSpace(s.alloc, w.THP)
		l2Cfg := named(cfg.L2, i)
		l2Cfg.Replacement = cfg.Replacement
		l2Cfg.PromoteLatency = cfg.LLC.Latency + dramLat
		l1Cfg := named(cfg.L1D, i)
		l1Cfg.Replacement = cfg.Replacement
		l1Cfg.PromoteLatency = cfg.L2.Latency + cfg.LLC.Latency + dramLat
		if cfg.DisablePromotion {
			l2Cfg.PromoteLatency = 0
			l1Cfg.PromoteLatency = 0
		}
		n.l2 = cache.New(l2Cfg, s.llc)
		n.l1d = cache.New(l1Cfg, n.l2)
		n.l1i = cache.New(named(cfg.L1I, i), n.l2)
		// Instruction pages are always 4KB (Linux maps code with 4KB pages;
		// Section IV-A): the code address space never uses large pages.
		n.codeSpace = vm.NewAddressSpace(s.alloc, vm.FractionTHP{Frac: 0})
		n.llc = s.llc
		// The walker's references enter the hierarchy at the L1D, exactly
		// like demand accesses.
		n.mmu = vm.NewMMU(n.space, cfg.MMU, i, n.l1d)
		n.mmu.SetWalkArena(walkArena)
		n.reader = w.New(seed + uint64(i)*997)

		if spec.Base != "" && spec.Base != "none" {
			factory, err := factoryFor(spec.Base, spec.Variant)
			if err != nil {
				return nil, err
			}
			n.engine = core.New(factory, spec.Variant, n.l2, s.llc, oracle, i)
			// Virtual-side candidates (vamp) translate through the core's own
			// TLBs: resident pages issue, everything else is dropped — VA
			// prefetching must never force a page walk.
			n.engine.SetTranslator(residentTranslator(n.mmu))
			if cfg.PQDepth > 0 {
				n.engine.PQDepth = cfg.PQDepth
			}
			n.l2.SetObserver(n.engine)
			engines[i] = n.engine
		}
		if spec.L1 == L1IPCP || spec.L1 == L1IPCPPP {
			n.l1pf = ipcp.New(ipcp.DefaultConfig())
		}
		n.cpu = cpu.New(cfg.Core, n)
		s.nodes = append(s.nodes, n)
	}
	s.llc.SetObserver(&core.LLCFeedback{Engines: engines})
	return s, nil
}

// residentTranslator adapts an MMU's residency probe (TLB statistics
// restored) to the engine's Translator hook: virtual candidates resolve only
// against TLB-resident pages, so prefetch speculation never walks the page
// table.
func residentTranslator(m *vm.MMU) core.Translator {
	return func(v mem.Addr) (mem.Addr, mem.PageSize, bool) {
		tr, ok := m.ResidentTranslate(v)
		if !ok {
			return 0, 0, false
		}
		return tr.PAddr, tr.Size, true
	}
}

func named(c cache.Config, coreID int) cache.Config {
	if coreID > 0 {
		c.Name = c.Name + string(rune('0'+coreID))
	}
	return c
}

// Access implements cpu.MemSystem for one core: translate (TLB hierarchy and
// page walks through the caches), perform the demand access, and run the L1D
// prefetcher if configured.
func (n *coreNode) Access(pc, vaddr mem.Addr, write bool, at mem.Cycle) mem.Cycle {
	tr, ready := n.mmu.Translate(vaddr, at)
	typ := mem.Load
	if write {
		typ = mem.Store
	}
	req := n.demandPool.GetDirty()
	// PPM: the page size from the translation metadata accompanies the
	// request; on an L1D miss it is stored in the MSHR's extra bit and
	// travels to the L2 prefetcher.
	*req = mem.Request{
		PAddr:         tr.PAddr,
		VAddr:         vaddr,
		PC:            pc,
		Type:          typ,
		Core:          n.id,
		PageSize:      tr.Size,
		PageSizeKnown: true,
	}
	done := n.l1d.Access(req, ready)
	n.l1Prefetch(pc, vaddr, at, tr)
	return done
}

// FetchInstr implements cpu.InstrFetcher: instruction blocks travel through
// the L1I into the shared L2. Instruction pages are 4KB, so the propagated
// page-size bit is always zero for this traffic — exactly the paper's
// implementation choice for L1I misses.
func (n *coreNode) FetchInstr(pc mem.Addr, at mem.Cycle) mem.Cycle {
	tr := n.codeSpace.Translate(pc)
	req := n.fetchPool.GetDirty()
	*req = mem.Request{
		PAddr:         tr.PAddr,
		VAddr:         pc,
		PC:            pc,
		Type:          mem.Fetch,
		Core:          n.id,
		PageSize:      mem.Page4K,
		PageSizeKnown: true,
	}
	return n.l1i.Access(req, at)
}

// l1Prefetch runs the configured first-level prefetcher on the access.
func (n *coreNode) l1Prefetch(pc, vaddr mem.Addr, at mem.Cycle, tr vm.Translation) {
	switch n.l1Kind {
	case L1None:
		return
	case L1NextLine:
		cand := mem.BlockAlign(vaddr) + mem.BlockSize
		if mem.SamePage(vaddr, cand, mem.Page4K) {
			n.issueL1(cand, vaddr, tr, at, pc)
		}
	case L1IPCP, L1IPCPPP:
		n.candBuf = n.l1pf.Operate(pc, vaddr, n.candBuf[:0])
		for _, c := range n.candBuf {
			if mem.SamePage(vaddr, c.VAddr, mem.Page4K) {
				n.issueL1(c.VAddr, vaddr, tr, at, pc)
				continue
			}
			// IPCP++ may cross the 4KB virtual boundary, but only when the
			// target page's translation is TLB-resident (Section VI-B5).
			if n.l1Kind == L1IPCPPP && n.mmu.Resident(c.VAddr) {
				n.issueL1(c.VAddr, vaddr, tr, at, pc)
			}
		}
	}
}

// issueL1 translates a virtual candidate without demand-populating mappings
// and injects the prefetch at the L1D.
func (n *coreNode) issueL1(cand, trigger mem.Addr, tr vm.Translation, at mem.Cycle, pc mem.Addr) {
	var paddr mem.Addr
	var size mem.PageSize
	if mem.SamePage(trigger, cand, tr.Size) {
		// Same page as the trigger: reuse its translation.
		paddr = mem.PageBase(tr.PAddr, tr.Size) + (cand & (tr.Size.Bytes() - 1))
		size = tr.Size
	} else {
		ct, ok := n.space.LookupOnly(cand)
		if !ok {
			return // prefetching must never create mappings
		}
		paddr, size = ct.PAddr, ct.Size
	}
	req := n.l1pfPool.GetDirty()
	*req = mem.Request{
		PAddr:         mem.BlockAlign(paddr),
		VAddr:         cand,
		PC:            pc,
		Type:          mem.Prefetch,
		Core:          n.id,
		PageSize:      size,
		PageSizeKnown: true,
		FillL2:        true,
	}
	n.l1d.Access(req, at)
}
