package sim

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

var testOpt = RunOpt{Warmup: 100_000, Instructions: 400_000, Seed: 1, Samples: 4}

func mustRun(t *testing.T, spec PrefSpec, name string) Result {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(DefaultConfig(), spec, w, testOpt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions == 0 || r.IPC <= 0 {
		t.Fatalf("%s/%s: degenerate result %+v", name, spec, r)
	}
	return r
}

func TestDefaultConfigMirrorsTableI(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.L1D.Sets * cfg.L1D.Ways * 64; got != 48<<10 {
		t.Errorf("L1D capacity = %d, want 48KB", got)
	}
	if got := cfg.L2.Sets * cfg.L2.Ways * 64; got != 512<<10 {
		t.Errorf("L2 capacity = %d, want 512KB", got)
	}
	if got := cfg.LLC.Sets * cfg.LLC.Ways * 64; got != 2<<20 {
		t.Errorf("LLC capacity = %d, want 2MB", got)
	}
	if cfg.Core.Width != 4 || cfg.Core.ROBSize != 352 {
		t.Errorf("core config %+v", cfg.Core)
	}
	if cfg.DRAM.TransferMTps != 3200 {
		t.Errorf("DRAM rate %d", cfg.DRAM.TransferMTps)
	}
	s := cfg.String()
	for _, want := range []string{"48KB", "512KB", "2MB", "352-entry ROB", "3200 MT/s", "1536-entry"} {
		if !contains(s, want) {
			t.Errorf("config string missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDeterministicRuns(t *testing.T) {
	a := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSA}, "libquantum")
	b := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSA}, "libquantum")
	if a.IPC != b.IPC || a.Cycles != b.Cycles || a.L2 != b.L2 {
		t.Error("identical runs produced different results")
	}
}

// TestPaperShapeSPP asserts the qualitative results of Figures 4, 5, and 8 on
// representative workloads: prefetching beats no prefetching on streaming
// workloads; PSA beats original when 2MB pages dominate; PSA ≈ original when
// the workload lives on 4KB pages; PSA-2MB wins on milc's long strides.
func TestPaperShapeSPP(t *testing.T) {
	t.Run("libquantum", func(t *testing.T) {
		none := mustRun(t, PrefSpec{Base: "none"}, "libquantum")
		orig := mustRun(t, PrefSpec{Base: "spp", Variant: core.Original}, "libquantum")
		psa := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSA}, "libquantum")
		if orig.IPC <= none.IPC {
			t.Errorf("SPP (%.3f) did not beat no-prefetch (%.3f)", orig.IPC, none.IPC)
		}
		if psa.IPC <= orig.IPC {
			t.Errorf("SPP-PSA (%.3f) did not beat SPP original (%.3f)", psa.IPC, orig.IPC)
		}
	})
	t.Run("milc-psa2mb", func(t *testing.T) {
		orig := mustRun(t, PrefSpec{Base: "spp", Variant: core.Original}, "milc")
		psa2 := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSA2MB}, "milc")
		sd := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSASD}, "milc")
		if psa2.IPC <= orig.IPC*1.05 {
			t.Errorf("SPP-PSA-2MB (%.3f) did not clearly beat original (%.3f) on milc's long strides",
				psa2.IPC, orig.IPC)
		}
		if sd.IPC <= orig.IPC {
			t.Errorf("SPP-PSA-SD (%.3f) below original (%.3f) on milc", sd.IPC, orig.IPC)
		}
	})
	t.Run("soplex-4kb-bound", func(t *testing.T) {
		orig := mustRun(t, PrefSpec{Base: "spp", Variant: core.Original}, "soplex")
		psa := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSA}, "soplex")
		// soplex lives on 4KB pages: PSA has almost no opportunity.
		if math.Abs(psa.IPC-orig.IPC)/orig.IPC > 0.03 {
			t.Errorf("PSA (%.3f) deviates from original (%.3f) on a 4KB-dominated workload",
				psa.IPC, orig.IPC)
		}
		if psa.Engine.DiscardProbability() > 0.05 {
			t.Errorf("discard probability %.3f on a 4KB-dominated workload", psa.Engine.DiscardProbability())
		}
	})
}

func TestMagicMatchesPPMForData(t *testing.T) {
	// In this simulator the PPM bit always equals the oracle for data
	// accesses, so PSA and PSA-Magic must coincide.
	psa := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSA}, "libquantum")
	magic := mustRun(t, PrefSpec{Base: "spp", Variant: core.PSAMagic}, "libquantum")
	if psa.IPC != magic.IPC {
		t.Errorf("PSA (%v) and PSA-Magic (%v) diverged", psa.IPC, magic.IPC)
	}
}

func TestBOPVariantsIdentical(t *testing.T) {
	// BOP has no page-indexed structure: PSA and PSA-2MB are the same
	// prefetcher (Section VI-B1).
	psa := mustRun(t, PrefSpec{Base: "bop", Variant: core.PSA}, "libquantum")
	psa2 := mustRun(t, PrefSpec{Base: "bop", Variant: core.PSA2MB}, "libquantum")
	if psa.IPC != psa2.IPC {
		t.Errorf("BOP-PSA (%v) and BOP-PSA-2MB (%v) diverged", psa.IPC, psa2.IPC)
	}
}

func TestAllBasesRun(t *testing.T) {
	for _, base := range BaseNames() {
		r := mustRun(t, PrefSpec{Base: base, Variant: core.PSASD}, "bwaves")
		if r.L2.PrefetchIssued == 0 && base != "bop" {
			t.Errorf("%s issued no prefetches", base)
		}
	}
}

func TestUnknownBaseErrors(t *testing.T) {
	w, _ := trace.ByName("milc")
	if _, err := Run(DefaultConfig(), PrefSpec{Base: "bogus"}, w, testOpt); err == nil {
		t.Error("unknown prefetcher base did not error")
	}
}

func TestFig2DiscardProbabilityRange(t *testing.T) {
	// Figure 2: with 2MB-heavy workloads a visible share of candidates is
	// discarded at the 4KB boundary although the block lives in a 2MB page.
	orig := mustRun(t, PrefSpec{Base: "spp", Variant: core.Original}, "libquantum")
	p := orig.Engine.DiscardProbability()
	if p <= 0.01 || p > 0.6 {
		t.Errorf("discard probability = %.3f, want within Figure 2's observed band", p)
	}
}

func TestFrac2MTracksTHPPolicy(t *testing.T) {
	high := mustRun(t, PrefSpec{Base: "none"}, "libquantum") // THP frac 0.99
	low := mustRun(t, PrefSpec{Base: "none"}, "soplex")      // THP frac 0.15
	if high.Frac2MFinal < 0.9 {
		t.Errorf("libquantum 2MB fraction = %.2f, want ≥ 0.9", high.Frac2MFinal)
	}
	if low.Frac2MFinal > 0.5 {
		t.Errorf("soplex 2MB fraction = %.2f, want low", low.Frac2MFinal)
	}
	if len(high.Frac2MOverTime) != testOpt.Samples {
		t.Errorf("samples = %d, want %d", len(high.Frac2MOverTime), testOpt.Samples)
	}
}

func TestL1PrefetchersRun(t *testing.T) {
	none := mustRun(t, PrefSpec{Base: "none"}, "bwaves")
	for _, l1 := range []L1Pref{L1NextLine, L1IPCP, L1IPCPPP} {
		r := mustRun(t, PrefSpec{Base: "none", L1: l1}, "bwaves")
		if r.L1D.PrefetchIssued == 0 {
			t.Errorf("%s issued no L1 prefetches", l1)
		}
		if r.IPC <= none.IPC {
			t.Errorf("%s (%.3f) did not beat no-prefetch (%.3f) on a stream", l1, r.IPC, none.IPC)
		}
	}
}

func TestIPCPPPCrossesMoreThanIPCP(t *testing.T) {
	a := mustRun(t, PrefSpec{Base: "none", L1: L1IPCP}, "bwaves")
	b := mustRun(t, PrefSpec{Base: "none", L1: L1IPCPPP}, "bwaves")
	if b.IPC < a.IPC {
		t.Errorf("IPCP++ (%.3f) below IPCP (%.3f) on a page-crossing stream", b.IPC, a.IPC)
	}
}

func TestRunMultiWeightedIPC(t *testing.T) {
	mixNames := []string{"libquantum", "milc", "soplex", "bwaves"}
	var mix []trace.Workload
	for _, n := range mixNames {
		w, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		mix = append(mix, w)
	}
	opt := RunOpt{Warmup: 50_000, Instructions: 150_000, Seed: 1}
	res, err := RunMulti(DefaultConfig(), PrefSpec{Base: "spp", Variant: core.PSA}, mix, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d, want one per core", len(res))
	}
	for i, r := range res {
		// Every core is measured over exactly its own window, so IPC stays
		// within the retire width (see withinWidth).
		if r.Instructions != opt.Instructions {
			t.Errorf("core %d measured %d instructions, want %d", i, r.Instructions, opt.Instructions)
		}
		if r.IPC <= 0 || !withinWidth(r) {
			t.Errorf("core %d IPC = %v (%d instructions in %d cycles)", i, r.IPC, r.Instructions, r.Cycles)
		}
		if r.Workload != mixNames[i] {
			t.Errorf("core %d result names %q, want %q", i, r.Workload, mixNames[i])
		}
	}
	// Shared-resource contention: each core must run slower than in
	// isolation on the same (scaled) machine.
	for i, w := range mix {
		iso, err := Run(DefaultConfig(), PrefSpec{Base: "spp", Variant: core.PSA}, w,
			RunOpt{Warmup: 50_000, Instructions: 150_000, Seed: 1, Samples: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res[i].IPC > iso.IPC*1.15 {
			t.Errorf("%s: multicore IPC %.3f exceeds isolation %.3f", w.Name, res[i].IPC, iso.IPC)
		}
	}
}

// withinWidth reports whether a measured window retired no more than the
// core's width per cycle. A window spans the Cycles+1 cycles from the one it
// starts in to the one its last instruction retires in (a core stopped
// between cycles has used none of its first cycle's retire slots), so that is
// the bound: a full-width stream (bwaves) reads IPC 4.0001 over 37499 cycles.
func withinWidth(r Result) bool {
	return r.Instructions <= uint64(DefaultConfig().Core.Width)*uint64(r.Cycles+1)
}

func TestTLBAndWalksExercised(t *testing.T) {
	// soplex is 4KB-heavy with a large footprint: the TLB hierarchy and the
	// page-table walker must both see traffic.
	r := mustRun(t, PrefSpec{Base: "none"}, "soplex")
	if r.TLBL1Misses == 0 {
		t.Error("no L1 TLB misses on a 4KB-heavy workload")
	}
	if r.Walks == 0 {
		t.Error("no page walks on a 4KB-heavy workload")
	}
	// libquantum with 2MB pages should walk far less per instruction.
	lq := mustRun(t, PrefSpec{Base: "none"}, "libquantum")
	if float64(lq.Walks)/float64(lq.Instructions) >= float64(r.Walks)/float64(r.Instructions) {
		t.Error("2MB-heavy workload walked as much as the 4KB-heavy one")
	}
}

func TestExtendedBasesRun(t *testing.T) {
	for _, base := range []string{"sms", "ampm", "temporal"} {
		r := mustRun(t, PrefSpec{Base: base, Variant: core.PSA}, "bwaves")
		if base != "temporal" && r.L2.PrefetchIssued == 0 {
			t.Errorf("%s issued no prefetches on a stream", base)
		}
	}
}

func TestTLBPrefetchConfigWiredThrough(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MMU.TLBPrefetch = true
	// soplex is 4KB-heavy: the TLB prefetcher must cut demand walks.
	w, err := trace.ByName("soplex")
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOpt{Warmup: 80_000, Instructions: 300_000, Seed: 1, Samples: 1}
	base, err := Run(DefaultConfig(), PrefSpec{Base: "none"}, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	pref, err := Run(cfg, PrefSpec{Base: "none"}, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pref.Walks >= base.Walks {
		t.Errorf("TLB prefetch did not reduce demand walks: %d vs %d", pref.Walks, base.Walks)
	}
}

func TestPSAGainReplacementAgnostic(t *testing.T) {
	// The page-size machinery must keep its win under a different
	// replacement policy (SRRIP) — it never touches replacement state.
	cfg := DefaultConfig()
	cfg.Replacement = cache.ReplSRRIP
	w, err := trace.ByName("libquantum")
	if err != nil {
		t.Fatal(err)
	}
	opt := RunOpt{Warmup: 80_000, Instructions: 300_000, Seed: 1, Samples: 1}
	orig, err := Run(cfg, PrefSpec{Base: "spp", Variant: core.Original}, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	psa, err := Run(cfg, PrefSpec{Base: "spp", Variant: core.PSA}, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if psa.IPC <= orig.IPC {
		t.Errorf("under SRRIP, PSA (%.3f) did not beat original (%.3f)", psa.IPC, orig.IPC)
	}
}

func TestL1IPathExercised(t *testing.T) {
	// Tight loops fetch each instruction block once (compulsory misses
	// only); code alternating across blocks re-probes the L1I and hits.
	sys, err := newSystem(DefaultConfig(), PrefSpec{Base: "none"}, []trace.Workload{mustWorkload(t, "bwaves")}, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := sys.nodes[0]
	n.cpu.Run(n.reader, 100_000)
	if n.l1i.Stats.DemandMisses == 0 {
		t.Error("L1I saw no compulsory misses")
	}
	if n.l1i.Stats.DemandMisses > 100 {
		t.Errorf("loop code thrashing the L1I: %d misses", n.l1i.Stats.DemandMisses)
	}

	// Alternating instruction blocks: 2 compulsory misses, then hits.
	a, b := mem.Addr(0x400000), mem.Addr(0x400100)
	for i := 0; i < 10; i++ {
		n.FetchInstr(a, mem.Cycle(1_000_000+i*100))
		n.FetchInstr(b, mem.Cycle(1_000_000+i*100+50))
	}
	if n.l1i.Stats.DemandHits < 18 {
		t.Errorf("alternating code blocks: L1I hits = %d, want ≥ 18", n.l1i.Stats.DemandHits)
	}
}

func mustWorkload(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
