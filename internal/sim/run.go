package sim

import (
	"context"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/trace"
)

// RunOpt controls a run's length.
type RunOpt struct {
	Warmup       uint64 // instructions to warm structures (stats then reset)
	Instructions uint64 // measured instructions
	Seed         uint64
	Samples      int // Frac2M samples taken across the measured window (Fig. 3)
}

// DefaultRunOpt returns a laptop-scale default: 250K warmup, 1M measured.
// The paper uses 250M+250M on ChampSim; the shape-level results reproduce at
// this scale because the footprints dwarf the caches either way.
func DefaultRunOpt() RunOpt {
	return RunOpt{Warmup: 250_000, Instructions: 1_000_000, Seed: 1, Samples: 16}
}

// Result carries everything the experiments derive their figures from: one
// core's measured window, plus the shared LLC and DRAM counters.
type Result struct {
	Workload string
	Spec     string

	Instructions uint64
	Cycles       mem.Cycle
	IPC          float64

	L1D, L2, LLC cache.Stats
	Engine       core.Stats
	DRAM         dram.Stats

	TLBL1Hits, TLBL1Misses uint64
	TLBL2Hits, TLBL2Misses uint64
	Walks                  uint64

	// Frac2MOverTime samples the fraction of mapped memory backed by 2MB
	// pages across the run (Figure 3); Frac2MFinal is the last sample.
	Frac2MOverTime []float64
	Frac2MFinal    float64
}

// Run simulates one workload on a single-core machine with the given
// prefetching spec.
func Run(cfg Config, spec PrefSpec, w trace.Workload, opt RunOpt) (Result, error) {
	return RunContext(context.Background(), cfg, spec, w, opt)
}

// RunContext is Run with cancellation: it is the one-core case of the mix
// driver (see RunMultiContext), so a canceled run stops within one epoch and
// returns ctx.Err(). Results of canceled runs are partial and must not be
// cached.
//
// The context may also carry an *Instrumentation (WithInstrumentation): the
// run then additionally stops at every telemetry epoch boundary to sample the
// collector's probes. Execution is chunk-invariant (the CPU model carries
// in-flight state across RunUntil calls), so instrumented and plain runs
// produce identical results.
func RunContext(ctx context.Context, cfg Config, spec PrefSpec, w trace.Workload, opt RunOpt) (Result, error) {
	rs, err := run(ctx, cfg, spec, []trace.Workload{w}, opt)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunMulti simulates a mix of workloads, one per core, over a shared LLC and
// DRAM, returning one Result per core.
func RunMulti(cfg Config, spec PrefSpec, mix []trace.Workload, opt RunOpt) ([]Result, error) {
	return RunMultiContext(context.Background(), cfg, spec, mix, opt)
}

// RunMultiContext is RunMulti with cancellation, checked at every shared-time
// epoch. Physical memory grows to at least 4GB per core so a mix of large
// footprints never exhausts the shared allocator.
func RunMultiContext(ctx context.Context, cfg Config, spec PrefSpec, mix []trace.Workload, opt RunOpt) ([]Result, error) {
	cfg.PhysBytes = max(cfg.PhysBytes, mem.Addr(len(mix))*(4<<30))
	return run(ctx, cfg, spec, mix, opt)
}

// epochCycles is the shared-time quantum: every core runs up to the same
// cycle bound before any core starts the next epoch, so no core's requests
// run far ahead of its peers' clocks on the shared LLC and DRAM.
const epochCycles = 2000

// coreRun is one core's progress through a run.
type coreRun struct {
	n       *coreNode
	left    uint64 // instructions to the next target; 0 once the core has finished the phase
	drained bool   // the core's trace has ended

	// Measured window: its start, the next Frac2M sample point and telemetry
	// epoch boundary (offsets from instrStart), and the telemetry period
	// (0 when this core is not instrumented).
	instrStart                            uint64
	cycleStart                            mem.Cycle
	nextSample, nextEpoch, lastEpochClose uint64
	epoch                                 uint64

	res Result
}

// run is the simulation driver for one core and for mixes alike, following
// the standard multi-core methodology. All cores advance in shared epochs of
// epochCycles. Within an epoch each core runs to its next instruction target
// (warm-up end, Frac2M sample point, telemetry epoch, measurement end), so
// targets are instruction-exact; a core past its target keeps running so the
// contention its peers see never drops. The warm-up ends, and every core's
// measured window starts, the moment the last core has retired opt.Warmup
// instructions; each core's Result covers exactly its first
// opt.Instructions after that, and carries the shared LLC and DRAM counters
// over the whole measured phase.
func run(ctx context.Context, cfg Config, spec PrefSpec, ws []trace.Workload, opt RunOpt) ([]Result, error) {
	sys, err := newSystem(cfg, spec, ws, opt.Seed)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cores := make([]*coreRun, len(sys.nodes))
	for i, n := range sys.nodes {
		cores[i] = &coreRun{n: n, left: opt.Warmup}
	}
	if err := runPhase(ctx, cores, func(*coreRun) uint64 { return 0 }); err != nil {
		return nil, err
	}
	resetStats(sys)
	ins := InstrumentationFrom(ctx)
	ins.attach(sys)

	total := opt.Instructions
	samples := max(opt.Samples, 1)
	chunk := total / uint64(samples)
	if chunk == 0 {
		chunk = total
	}
	for i, c := range cores {
		c.instrStart, c.cycleStart = c.n.cpu.Instructions, c.n.cpu.Cycle
		c.res = Result{Workload: ws[i].Name, Spec: spec.String()}
		if total == 0 {
			// A zero-length window takes no samples and keeps the nil slice
			// (JSON null) it always produced.
			c.finish()
			continue
		}
		c.res.Frac2MOverTime = make([]float64, 0, samples+1)
		c.nextSample = min(chunk, total)
		if i == 0 { // the collector's probes watch core 0 (attach)
			if c.epoch = ins.epochLen(); c.epoch > 0 {
				c.nextEpoch = min(c.epoch, total)
			}
		}
		c.left = c.target()
	}
	// Frac2M samples land every `chunk` retired instructions and at the drain
	// point whether or not telemetry epochs interleave, so the series is
	// invariant under instrumentation.
	measure := func(c *coreRun) uint64 {
		retired := c.n.cpu.Instructions - c.instrStart
		if retired == c.nextSample || c.drained {
			c.res.Frac2MOverTime = append(c.res.Frac2MOverTime, sys.alloc.Frac2M())
			c.nextSample = min(c.nextSample+chunk, total)
		}
		if c.epoch > 0 && (retired == c.nextEpoch || (c.drained && retired > c.lastEpochClose)) {
			ins.Collector.EndEpoch(retired, uint64(c.n.cpu.Cycle-c.cycleStart))
			c.lastEpochClose = retired
			c.nextEpoch = min(c.nextEpoch+c.epoch, total)
		}
		if retired == total || c.drained {
			c.finish()
			return 0
		}
		return c.target() - retired
	}
	if err := runPhase(ctx, cores, measure); err != nil {
		return nil, err
	}

	rs := make([]Result, len(cores))
	for i, c := range cores {
		rs[i] = c.res
		rs[i].LLC = sys.llc.Stats
		rs[i].DRAM = sys.dramDev.Stats
	}
	return rs, nil
}

// runPhase advances the cores in shared epochs until every core has finished
// the phase. A core's left is its distance to its next target; arrive is
// called each time the core gets there (or its trace drains) and returns the
// distance to the following target, 0 once the core has finished the phase.
// Finished cores keep running, and the phase ends the moment its last core
// finishes. The context is checked at every epoch.
func runPhase(ctx context.Context, cores []*coreRun, arrive func(*coreRun) uint64) error {
	active := 0
	for _, c := range cores {
		if c.left > 0 && c.drained {
			c.left = arrive(c)
		}
		if c.left > 0 {
			active++
		}
	}
	for active > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		epochEnd := mem.Cycle(1 << 62)
		for _, c := range cores {
			if !c.drained {
				epochEnd = min(epochEnd, c.n.cpu.Cycle)
			}
		}
		epochEnd += epochCycles
		for _, c := range cores {
			for !c.drained && c.n.cpu.Cycle < epochEnd {
				limit := c.left
				if limit == 0 {
					limit = 1 << 62
				}
				got := c.n.cpu.RunUntil(c.n.reader, limit, epochEnd)
				c.drained = got < limit && c.n.cpu.Cycle < epochEnd
				if c.left == 0 {
					continue
				}
				if c.left -= got; c.left > 0 && !c.drained {
					continue
				}
				if c.left = arrive(c); c.left == 0 {
					if active--; active == 0 {
						return nil
					}
				}
			}
		}
	}
	return nil
}

// target returns the core's next instruction target within the measured
// window: the nearer of the next Frac2M sample point and, when
// instrumented, the next telemetry epoch boundary.
func (c *coreRun) target() uint64 {
	if c.epoch > 0 {
		return min(c.nextSample, c.nextEpoch)
	}
	return c.nextSample
}

// finish records the core's private counters at the end of its measured
// window; it keeps running afterwards, so they are read now.
func (c *coreRun) finish() {
	n, r := c.n, &c.res
	r.Instructions = n.cpu.Instructions - c.instrStart
	r.Cycles = n.cpu.Cycle - c.cycleStart
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / float64(r.Cycles)
	}
	r.L1D = n.l1d.Stats
	r.L2 = n.l2.Stats
	if n.engine != nil {
		r.Engine = n.engine.Stats
	}
	r.TLBL1Hits, r.TLBL1Misses = n.mmu.L1().Hits, n.mmu.L1().Misses
	r.TLBL2Hits, r.TLBL2Misses = n.mmu.L2().Hits, n.mmu.L2().Misses
	r.Walks = n.mmu.Walks
	if k := len(r.Frac2MOverTime); k > 0 {
		r.Frac2MFinal = r.Frac2MOverTime[k-1]
	}
}

// resetStats zeroes the measurable counters after warmup, keeping all
// microarchitectural state warm.
func resetStats(sys *system) {
	sys.llc.Stats = cache.Stats{}
	sys.dramDev.Stats = dram.Stats{}
	for _, n := range sys.nodes {
		n.l1d.Stats = cache.Stats{}
		n.l2.Stats = cache.Stats{}
		if n.engine != nil {
			n.engine.Stats = core.Stats{}
		}
		n.mmu.L1().Hits, n.mmu.L1().Misses = 0, 0
		n.mmu.L2().Hits, n.mmu.L2().Misses = 0, 0
		n.mmu.L1().HitsBy = [mem.NumPageSizes]uint64{}
		n.mmu.L2().HitsBy = [mem.NumPageSizes]uint64{}
		n.mmu.Walks, n.mmu.WalkRefs = 0, 0
		n.mmu.WalksBy = [mem.NumPageSizes]uint64{}
	}
}
