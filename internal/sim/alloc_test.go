package sim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestSteadyStateZeroAllocs drives a fully assembled system past warmup and
// asserts the per-access hot path — demand descent, TLB/page walks, prefetch
// engine, MSHRs, DRAM — allocates nothing in steady state. Construction and
// first-touch page mapping amortize to zero; any per-access allocation (a
// leaked request, a growing table, a closure in the issue path) shows up as a
// nonzero rate.
//
// The rows are one workload per behaviour class (streamer, page-crossing
// strides, pointer chase, 4KB-heavy gather, graph) crossed with the paper's
// prefetchers, the crossing families and the baseline machine, so a
// per-access allocation in any hot subsystem trips at least one row.
func TestSteadyStateZeroAllocs(t *testing.T) {
	rows := []struct {
		workload string
		spec     PrefSpec
	}{
		{"libquantum", PrefSpec{Base: "none"}},
		{"libquantum", PrefSpec{Base: "spp", Variant: core.PSASD}},
		// The walk-bound rows: TLB-miss and page-walk heavy.
		{"milc", PrefSpec{Base: "spp", Variant: core.PSA2MB}},
		{"mcf", PrefSpec{Base: "ppf", Variant: core.PSA}},
		{"soplex", PrefSpec{Base: "vldp", Variant: core.Original}},
		{"pr.road", PrefSpec{Base: "bop", Variant: core.PSA}},
		{"bwaves", PrefSpec{Base: "spp", Variant: core.PSA, L1: L1IPCPPP}},
		// pangloss under dueling exercises both delta-cache geometries and
		// the sampling duel; vamp exercises the virtual-candidate issue path
		// (TLB probe plus translation per crossing candidate).
		{"pr.road", PrefSpec{Base: "pangloss", Variant: core.PSASD}},
		{"milc", PrefSpec{Base: "vamp", Variant: core.PSA}},
	}
	for _, row := range rows {
		w, err := trace.ByName(row.workload)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := newSystem(DefaultConfig(), row.spec, []trace.Workload{w}, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := sys.nodes[0]
		reader := n.reader
		n.cpu.Run(reader, 150_000) // warm tables, TLBs, and touched pages
		const chunk = 10_000
		avg := testing.AllocsPerRun(20, func() {
			n.cpu.Run(reader, chunk)
		})
		// A fresh page still faults in occasionally after warmup (the
		// trace keeps expanding its footprint); allow a whisper of
		// mapping growth but nothing per-access.
		if perInstr := avg / chunk; perInstr > 0.0005 {
			t.Errorf("%s/%s: steady state allocates %.1f allocs per %d instructions",
				row.workload, row.spec.String(), avg, chunk)
		}
	}
}
