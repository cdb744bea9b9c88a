package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// These tests pin the directional behaviour behind Figure 12's constrained
// evaluation: performance must respond in the physically sensible direction
// to MSHR capacity, LLC size, and DRAM bandwidth, and the page-size-aware
// gains must survive at the constrained points.

func runWith(t *testing.T, cfg Config, spec PrefSpec, name string) Result {
	t.Helper()
	w, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(cfg, spec, w, RunOpt{Warmup: 80_000, Instructions: 300_000, Seed: 1, Samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDRAMBandwidthDirection(t *testing.T) {
	slow := DefaultConfig()
	slow.DRAM.TransferMTps = 400
	fast := DefaultConfig()
	fast.DRAM.TransferMTps = 6400
	spec := PrefSpec{Base: "none"}
	a := runWith(t, slow, spec, "libquantum")
	b := runWith(t, fast, spec, "libquantum")
	if a.IPC >= b.IPC {
		t.Errorf("400MT/s IPC %.3f not below 6400MT/s %.3f", a.IPC, b.IPC)
	}
}

func TestLLCSizeDirection(t *testing.T) {
	small := DefaultConfig()
	small.LLC.Sets = 256 << 10 / (64 * small.LLC.Ways)
	big := DefaultConfig()
	spec := PrefSpec{Base: "none"}
	// A gather with LLC-scale reuse benefits from the larger LLC.
	a := runWith(t, small, spec, "sphinx3")
	b := runWith(t, big, spec, "sphinx3")
	if a.IPC > b.IPC*1.02 {
		t.Errorf("256KB LLC IPC %.3f above 2MB LLC %.3f", a.IPC, b.IPC)
	}
}

func TestL2MSHRDirection(t *testing.T) {
	small := DefaultConfig()
	small.L2.MSHREntries = 8
	big := DefaultConfig()
	big.L2.MSHREntries = 128
	spec := PrefSpec{Base: "spp", Variant: core.PSA}
	a := runWith(t, small, spec, "bwaves")
	b := runWith(t, big, spec, "bwaves")
	if a.IPC > b.IPC*1.02 {
		t.Errorf("8-entry L2 MSHR IPC %.3f above 128-entry %.3f", a.IPC, b.IPC)
	}
}

func TestPSAGainSurvivesConstrainedMSHR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L2.MSHREntries = 8
	orig := runWith(t, cfg, PrefSpec{Base: "spp", Variant: core.Original}, "libquantum")
	psa := runWith(t, cfg, PrefSpec{Base: "spp", Variant: core.PSA}, "libquantum")
	// An 8-entry MSHR starves prefetching almost entirely (tens of thousands
	// of drops), so both variants converge to the no-prefetch baseline; PSA
	// must at least stay within noise of the original.
	if psa.IPC < orig.IPC*0.95 {
		t.Errorf("PSA (%.3f) collapsed below original (%.3f) with an 8-entry L2 MSHR", psa.IPC, orig.IPC)
	}
}

func TestPSAGainSurvivesLowBandwidth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DRAM.TransferMTps = 800
	orig := runWith(t, cfg, PrefSpec{Base: "spp", Variant: core.Original}, "bwaves")
	psa := runWith(t, cfg, PrefSpec{Base: "spp", Variant: core.PSA}, "bwaves")
	if psa.IPC < orig.IPC*0.99 {
		t.Errorf("PSA (%.3f) below original (%.3f) at 800MT/s", psa.IPC, orig.IPC)
	}
}

func TestEightCoreContention(t *testing.T) {
	// 8 cores over one DRAM should degrade per-core IPC vs 4 cores (the
	// bandwidth argument behind Figure 15's lower speedups).
	var mix4, mix8 []trace.Workload
	for i := 0; i < 8; i++ {
		w, err := trace.ByName("libquantum")
		if err != nil {
			t.Fatal(err)
		}
		if i < 4 {
			mix4 = append(mix4, w)
		}
		mix8 = append(mix8, w)
	}
	opt := RunOpt{Warmup: 30_000, Instructions: 100_000, Seed: 1}
	r4, err := RunMulti(DefaultConfig(), PrefSpec{Base: "none"}, mix4, opt)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := RunMulti(DefaultConfig(), PrefSpec{Base: "none"}, mix8, opt)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(rs []Result) float64 {
		s := 0.0
		for i, r := range rs {
			if r.Instructions != opt.Instructions {
				t.Errorf("%d-core run: core %d measured %d instructions, want %d",
					len(rs), i, r.Instructions, opt.Instructions)
			}
			if r.IPC <= 0 || !withinWidth(r) {
				t.Errorf("%d-core run: core %d IPC = %v", len(rs), i, r.IPC)
			}
			s += r.IPC
		}
		return s / float64(len(rs))
	}
	if avg(r8) >= avg(r4) {
		t.Errorf("8-core per-core IPC %.3f not below 4-core %.3f (same DRAM)", avg(r8), avg(r4))
	}
}
