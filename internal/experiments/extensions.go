package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/prefetch/temporal"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ---------------------------------------------------------------------------
// Ablation — the modelling decisions DESIGN.md calls out
// ---------------------------------------------------------------------------

// AblationResult quantifies the effect of each simulator modelling decision
// on the headline metric (SPP-PSA geomean speedup over SPP original).
type AblationResult struct {
	// Geomean[config] is the SPP-PSA geomean % speedup under the config.
	Geomean map[string]float64
	Order   []string
}

// Ablation re-runs the SPP-PSA headline comparison with each modelling
// feature removed in turn: the finite prefetch queue, MSHR promotion, and
// FR-FCFS row batching.
func Ablation(o Options) (*AblationResult, error) {
	configs := []struct {
		name string
		mod  func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"unbounded-PQ", func(c *sim.Config) { c.PQDepth = 1 << 40 }},
		{"no-promotion", func(c *sim.Config) { c.DisablePromotion = true }},
		{"serial-rows", func(c *sim.Config) { c.DRAM.RowSlots = 1 }},
	}
	res := &AblationResult{Geomean: map[string]float64{}}
	for _, cc := range configs {
		po := o
		po.Config = o.Config
		cc.mod(&po.Config)
		var jobs []Job
		for _, w := range po.workloads() {
			jobs = append(jobs, Job{Workload: w, Spec: sim.PrefSpec{Base: "spp", Variant: core.Original}})
			jobs = append(jobs, Job{Workload: w, Spec: sim.PrefSpec{Base: "spp", Variant: core.PSA}})
		}
		rs, err := runBatch(po, jobs)
		if err != nil {
			return nil, err
		}
		var bases, vars []float64
		for i := 0; i < len(rs); i += 2 {
			bases = append(bases, rs[i].IPC)
			vars = append(vars, rs[i+1].IPC)
		}
		res.Geomean[cc.name] = stats.GeomeanSpeedup(bases, vars)
		res.Order = append(res.Order, cc.name)
	}
	return res, nil
}

// Render implements Renderer.
func (r *AblationResult) Render() string {
	var b strings.Builder
	b.WriteString("Ablation — SPP-PSA geomean speedup % over SPP original per model config\n")
	for _, n := range r.Order {
		fmt.Fprintf(&b, "  %-14s %6.1f\n", n, r.Geomean[n])
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Extensions — prefetchers and mechanisms beyond the paper's evaluation
// ---------------------------------------------------------------------------

// ExtensionsResult covers the extra prefetchers (SMS, AMPM, temporal), the
// TLB prefetcher, and the spatial-vs-temporal contrast.
type ExtensionsResult struct {
	// PSAGeomean[base] is the PSA geomean % speedup over that base's
	// original version, for the extended bases.
	PSAGeomean map[string]float64
	// SpeedupOverNone[base] is the base prefetcher's geomean × over a
	// no-prefetch baseline (temporal vs spatial contrast).
	SpeedupOverNone map[string]float64
	// TemporalMetadataBytes vs SpatialMetadataApprox document the metadata
	// argument of Section II-A.
	TemporalMetadataBytes int
	// TLBPrefetchWalkReduction is the relative reduction in demand page
	// walks with the footnote-3 TLB prefetcher enabled (4KB-heavy subset).
	TLBPrefetchWalkReduction float64
}

// Extensions evaluates everything built beyond the paper's scope.
func Extensions(o Options) (*ExtensionsResult, error) {
	res := &ExtensionsResult{
		PSAGeomean:            map[string]float64{},
		SpeedupOverNone:       map[string]float64{},
		TemporalMetadataBytes: temporal.New(temporal.DefaultConfig(), 12).MetadataBytes(),
	}

	// SMS confines candidates to sub-page spatial regions and temporal
	// replay is boundary-insensitive at this reach, so for them PSA ≡
	// original by construction; AMPM's zones are page-indexed, making its
	// 2MB-zone variant (PSA-2MB) the page-size-aware form with teeth.
	extended := []string{"sms", "ampm", "temporal"}
	variantFor := map[string]core.Variant{
		"sms": core.PSA, "ampm": core.PSA2MB, "temporal": core.PSA,
	}
	var jobs []Job
	for _, w := range o.workloads() {
		jobs = append(jobs, Job{Workload: w, Spec: sim.PrefSpec{Base: "none"}})
		for _, base := range extended {
			jobs = append(jobs, Job{Workload: w, Spec: sim.PrefSpec{Base: base, Variant: core.Original}})
			jobs = append(jobs, Job{Workload: w, Spec: sim.PrefSpec{Base: base, Variant: variantFor[base]}})
		}
	}
	rs, err := runBatch(o, jobs)
	if err != nil {
		return nil, err
	}
	ipc := map[string]float64{}
	for i, r := range rs {
		ipc[jobs[i].Workload.Name+"/"+jobs[i].Spec.String()] = r.IPC
	}
	for _, base := range extended {
		var none, orig, psa []float64
		for _, w := range o.workloads() {
			none = append(none, ipc[w.Name+"/no-prefetch"])
			orig = append(orig, ipc[w.Name+"/"+sim.PrefSpec{Base: base, Variant: core.Original}.String()])
			psa = append(psa, ipc[w.Name+"/"+sim.PrefSpec{Base: base, Variant: variantFor[base]}.String()])
		}
		res.PSAGeomean[base] = stats.GeomeanSpeedup(orig, psa)
		res.SpeedupOverNone[base] = stats.Geomean(ratios(none, orig))
	}

	// TLB prefetcher: demand-walk reduction on the 4KB-heavy subset.
	walkWs, err := WorkloadsByName([]string{"soplex", "gcc", "omnetpp"})
	if err != nil {
		return nil, err
	}
	var walkJobs []Job
	for _, w := range walkWs {
		walkJobs = append(walkJobs, Job{Workload: w, Spec: sim.PrefSpec{Base: "none"}})
	}
	without, err := runBatch(o, walkJobs)
	if err != nil {
		return nil, err
	}
	po := o
	po.Config.MMU.TLBPrefetch = true
	with, err := runBatch(po, walkJobs)
	if err != nil {
		return nil, err
	}
	var withW, withoutW uint64
	for i := range walkJobs {
		withoutW += without[i].Walks
		withW += with[i].Walks
	}
	if withoutW > 0 {
		res.TLBPrefetchWalkReduction = 1 - float64(withW)/float64(withoutW)
	}
	return res, nil
}

// Render implements Renderer.
func (r *ExtensionsResult) Render() string {
	var b strings.Builder
	b.WriteString("Extensions beyond the paper's evaluation\n")
	b.WriteString("extended prefetchers (× over no-prefetch; page-size-aware % over own original):\n")
	for _, base := range []string{"sms", "ampm", "temporal"} {
		label := "PSA"
		if base == "ampm" {
			label = "PSA-2MB"
		}
		fmt.Fprintf(&b, "  %-9s %6.3fx  %s %+5.1f%%\n",
			strings.ToUpper(base), r.SpeedupOverNone[base], label, r.PSAGeomean[base])
	}
	b.WriteString("temporal × = 1.0 on this stream-heavy set: its misses are compulsory and\n")
	b.WriteString("temporal replay fundamentally cannot cover them (Section II-A's contrast).\n")
	fmt.Fprintf(&b, "temporal metadata: %d KB of full addresses (spatial prefetchers store KB-scale deltas)\n",
		r.TemporalMetadataBytes>>10)
	fmt.Fprintf(&b, "TLB prefetcher (footnote 3): %.0f%% fewer demand page walks on 4KB-heavy workloads\n",
		r.TLBPrefetchWalkReduction*100)
	return b.String()
}
