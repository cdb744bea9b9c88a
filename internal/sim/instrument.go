package sim

import (
	"context"

	"repro/internal/cache"
	"repro/internal/telemetry"
)

// Instrumentation bundles the optional observability hooks for one run: a
// metric collector sampled at epoch boundaries and a prefetch-lifecycle
// tracer. Both are strictly observational — an instrumented run retires the
// same instructions in the same cycles as a plain one (pinned by
// TestInstrumentedMatchesPlain) — so telemetry never invalidates cached
// results; it only rides along.
type Instrumentation struct {
	Collector *telemetry.Collector
	Tracer    *telemetry.Tracer
	// EpochInstructions is the sampling period in retired instructions;
	// DefaultEpochInstructions when zero and a Collector is set.
	EpochInstructions uint64
}

// DefaultEpochInstructions is the default telemetry sampling period.
const DefaultEpochInstructions = 100_000

type insKey struct{}

// WithInstrumentation returns a context carrying ins. The context is the
// carrier because runs are dispatched through layers that must not know about
// telemetry (the result cache, the service's simFn): the run driver picks the
// instrumentation up on the far side without any signature change.
func WithInstrumentation(ctx context.Context, ins *Instrumentation) context.Context {
	if ins == nil {
		return ctx
	}
	return context.WithValue(ctx, insKey{}, ins)
}

// InstrumentationFrom returns the instrumentation carried by ctx, or nil.
func InstrumentationFrom(ctx context.Context) *Instrumentation {
	ins, _ := ctx.Value(insKey{}).(*Instrumentation)
	return ins
}

// enabled reports whether any hook is present.
func (ins *Instrumentation) enabled() bool {
	return ins != nil && (ins.Collector != nil || ins.Tracer != nil)
}

// epochLen returns the epoch period in instructions, or 0 when no collector
// is attached (the run loop then never closes epochs).
func (ins *Instrumentation) epochLen() uint64 {
	if ins == nil || ins.Collector == nil {
		return 0
	}
	if ins.EpochInstructions > 0 {
		return ins.EpochInstructions
	}
	return DefaultEpochInstructions
}

// traceObserver adapts a telemetry.Tracer as a cache lifecycle observer.
type traceObserver struct {
	tr *telemetry.Tracer
}

// OnPrefetchLifecycle implements cache.LifecycleObserver.
func (o *traceObserver) OnPrefetchLifecycle(level string, ev cache.LifecycleEvent) {
	e := telemetry.Event{
		Level:  level,
		Block:  uint64(ev.Block),
		At:     int64(ev.At),
		Late:   ev.Late,
		PrefID: ev.PrefID,
		Core:   ev.Core,
	}
	if ev.Req != nil {
		e.PC = uint64(ev.Req.PC)
		if ev.Req.PageSizeKnown {
			e.PageSize = ev.Req.PageSize.String()
		}
		e.CrossedPage = ev.Req.CrossedPage
	}
	switch ev.Kind {
	case cache.LifeFill:
		e.Kind = telemetry.EvFill
		e.Issue = int64(ev.At)
		e.At = int64(ev.Done)
	case cache.LifeUse:
		e.Kind = telemetry.EvUse
	case cache.LifeEvict:
		e.Kind = telemetry.EvEvict
	case cache.LifeDrop:
		e.Kind = telemetry.EvDrop
	}
	o.tr.Record(e)
}

// attach wires the instrumentation into an assembled system. The tracer
// becomes each cache's lifecycle sink — a dedicated hook off the per-access
// observer path, so the prefetch engine's feedback chain is untouched and
// demand accesses pay nothing. The collector registers probes over the
// system's counters; counter probes baseline at registration, so attaching
// after warm-up keeps warm-up counts out of the first epoch.
func (ins *Instrumentation) attach(sys *system) {
	if !ins.enabled() {
		return
	}
	if ins.Tracer != nil {
		obs := &traceObserver{tr: ins.Tracer}
		for _, n := range sys.nodes {
			n.l1d.SetLifecycleObserver(obs)
			n.l2.SetLifecycleObserver(obs)
		}
		sys.llc.SetLifecycleObserver(obs)
	}
	if ins.Collector != nil {
		ins.registerProbes(sys)
	}
}

// registerProbes installs the standard probe set over core 0 (node 0) and
// the shared LLC and DRAM: per-level cache counters and derived ratios,
// prefetch-engine counters with page-size attribution, TLB and page-walk
// traffic by page size, DRAM traffic and row-buffer behaviour, and occupancy
// gauges.
func (ins *Instrumentation) registerProbes(sys *system) {
	c := ins.Collector
	n := sys.nodes[0]

	cacheProbes(c, "l1d", n.l1d, n)
	cacheProbes(c, "l2", n.l2, n)
	cacheProbes(c, "llc", sys.llc, n)

	// Prefetch engine (absent for spec "none").
	if e := n.engine; e != nil {
		c.AddCounter("pf_proposed", func() uint64 { return e.Stats.Proposed })
		c.AddCounter("pf_issued", func() uint64 { return e.Stats.Issued })
		c.AddCounter("pf_cross4k", func() uint64 { return e.Stats.CrossedPage4K })
		c.AddCounter("pf_discarded_boundary", func() uint64 { return e.Stats.DiscardedBoundary })
		c.AddCounter("pf_queue_dropped", func() uint64 { return e.Stats.QueueDropped })
		c.AddCounter("ppm_4k", func() uint64 { return e.Stats.PPM4K })
		c.AddCounter("ppm_2m", func() uint64 { return e.Stats.PPM2M })
		c.AddDerived("pf_cross4k_rate", func(lk telemetry.Lookup) float64 {
			return ratio(lk("pf_cross4k"), lk("pf_issued"))
		})
		c.AddGauge("psasd_psel", func() float64 { return float64(e.Csel()) })
		c.AddGauge("psasd_winner", func() float64 {
			if e.PrefersB() {
				return 1
			}
			return 0
		})
	}

	// TLB hierarchy and page walks, by page size where the paper cares.
	l1tlb, l2tlb := n.mmu.L1(), n.mmu.L2()
	c.AddCounter("tlb_l1_hits", func() uint64 { return l1tlb.Hits })
	c.AddCounter("tlb_l1_misses", func() uint64 { return l1tlb.Misses })
	c.AddCounter("tlb_l2_hits", func() uint64 { return l2tlb.Hits })
	c.AddCounter("tlb_l2_misses", func() uint64 { return l2tlb.Misses })
	c.AddCounter("tlb_hits_4k", func() uint64 {
		return l1tlb.HitsBy[0] + l2tlb.HitsBy[0]
	})
	c.AddCounter("tlb_hits_2m", func() uint64 {
		return l1tlb.HitsBy[1] + l2tlb.HitsBy[1]
	})
	c.AddCounter("walks", func() uint64 { return n.mmu.Walks })
	c.AddCounter("walks_4k", func() uint64 { return n.mmu.WalksBy[0] })
	c.AddCounter("walks_2m", func() uint64 { return n.mmu.WalksBy[1] })

	// DRAM.
	d := sys.dramDev
	c.AddCounter("dram_reads", func() uint64 { return d.Stats.Reads })
	c.AddCounter("dram_writes", func() uint64 { return d.Stats.Writes })
	c.AddCounter("dram_row_hits", func() uint64 { return d.Stats.RowHits })
	c.AddCounter("dram_row_misses", func() uint64 { return d.Stats.RowMisses })
	c.AddDerived("dram_row_hit_rate", func(lk telemetry.Lookup) float64 {
		return ratio(lk("dram_row_hits"), lk("dram_row_hits")+lk("dram_row_misses"))
	})

	// Core and allocator gauges plus the headline derived series.
	c.AddGauge("rob_occupancy", func() float64 { return float64(n.cpu.ROBOccupancy()) })
	c.AddGauge("dram_busy_banks", func() float64 {
		return float64(d.BusyBanks(n.cpu.Cycle))
	})
	c.AddGauge("frac_2m", func() float64 { return sys.alloc.Frac2M() })
	c.AddDerived("ipc", func(lk telemetry.Lookup) float64 {
		return ratio(lk("instructions"), lk("cycles"))
	})
}

// cacheProbes registers one cache level's counters, gauges, and derived
// ratios under the given prefix.
func cacheProbes(c *telemetry.Collector, prefix string, cc *cache.Cache, n *coreNode) {
	c.AddCounter(prefix+"_demand_hits", func() uint64 { return cc.Stats.DemandHits })
	c.AddCounter(prefix+"_demand_misses", func() uint64 { return cc.Stats.DemandMisses })
	c.AddCounter(prefix+"_pf_issued", func() uint64 { return cc.Stats.PrefetchIssued })
	c.AddCounter(prefix+"_pf_useful", func() uint64 { return cc.Stats.PrefetchUseful })
	c.AddCounter(prefix+"_pf_late", func() uint64 { return cc.Stats.PrefetchLate })
	c.AddCounter(prefix+"_pf_unused", func() uint64 { return cc.Stats.PrefetchUnused })
	c.AddCounter(prefix+"_pf_dropped", func() uint64 { return cc.Stats.PrefetchDropped })
	c.AddGauge(prefix+"_mshr_busy", func() float64 {
		return float64(cc.MSHRBusy(n.cpu.Cycle))
	})
	c.AddDerived(prefix+"_mpki", func(lk telemetry.Lookup) float64 {
		instr := lk("instructions")
		if instr == 0 {
			return 0
		}
		return lk(prefix+"_demand_misses") / instr * 1000
	})
	c.AddDerived(prefix+"_hit_ratio", func(lk telemetry.Lookup) float64 {
		h := lk(prefix + "_demand_hits")
		return ratio(h, h+lk(prefix+"_demand_misses"))
	})
	// Accuracy counts late prefetches as useful (cache.Stats.Accuracy);
	// coverage credits fully hidden misses only (cache.Stats.Coverage).
	c.AddDerived(prefix+"_accuracy", func(lk telemetry.Lookup) float64 {
		good := lk(prefix+"_pf_useful") + lk(prefix+"_pf_late")
		return ratio(good, good+lk(prefix+"_pf_unused"))
	})
	c.AddDerived(prefix+"_coverage", func(lk telemetry.Lookup) float64 {
		u := lk(prefix + "_pf_useful")
		return ratio(u, u+lk(prefix+"_demand_misses"))
	})
}

// ratio returns num/den with 0/0 = 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
