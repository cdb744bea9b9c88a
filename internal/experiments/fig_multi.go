package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MultiResult holds the distribution of weighted speedups over random mixes
// for each prefetcher variant (Figures 14 and 15).
type MultiResult struct {
	Cores    int
	Schemes  []string
	Summary  map[string]stats.Summary
	Speedups map[string][]float64 // per-mix weighted-speedup % over original
}

// Figure14 runs the 4-core evaluation.
func Figure14(o Options) (*MultiResult, error) { return multicore(o, 4) }

// Figure15 runs the 8-core evaluation.
func Figure15(o Options) (*MultiResult, error) { return multicore(o, 8) }

// mixesFor deterministically draws n random mixes of k workloads each.
func mixesFor(o Options, cores, n int) [][]trace.Workload {
	ws := o.workloads()
	state := o.Seed*0x9e3779b97f4a7c15 + uint64(cores)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	mixes := make([][]trace.Workload, n)
	for i := range mixes {
		mix := make([]trace.Workload, cores)
		for c := range mix {
			mix[c] = ws[next()%uint64(len(ws))]
		}
		mixes[i] = mix
	}
	return mixes
}

// multicore evaluates PSA and PSA-SD for every base prefetcher over random
// mixes, reporting weighted speedup over the original prefetcher as in
// Section V-B: WS = Σ IPC_mc/IPC_iso, normalised by the baseline's WS.
func multicore(o Options, cores int) (*MultiResult, error) {
	nMixes := o.Mixes
	if nMixes <= 0 {
		nMixes = 20
	}
	mixes := mixesFor(o, cores, nMixes)
	cfg := o.Config
	cfg.PhysBytes = 32 << 30
	// Both multi-core configurations share an identical dual-channel DRAM,
	// which is exactly the paper's argument for the lower 8-core gains (our
	// synthetic workloads demand roughly twice the bandwidth of SimPointed
	// traces, so the channel count keeps the contention regime comparable).
	cfg.DRAM.Channels = 2
	opt := o.runOpt()

	// Isolation IPCs per (workload, spec) are shared across mixes: compute
	// them once on the multi-core-spec machine.
	type schemeDef struct {
		name string
		spec sim.PrefSpec
	}
	var schemes []schemeDef
	var baselines []schemeDef
	for _, base := range sim.BaseNames() {
		baselines = append(baselines, schemeDef{base + "-original", sim.PrefSpec{Base: base, Variant: core.Original}})
		schemes = append(schemes,
			schemeDef{strings.ToUpper(base) + "-PSA", sim.PrefSpec{Base: base, Variant: core.PSA}},
			schemeDef{strings.ToUpper(base) + "-PSA-SD", sim.PrefSpec{Base: base, Variant: core.PSASD}},
		)
	}

	// Gather the distinct workloads appearing in any mix.
	distinct := map[string]trace.Workload{}
	for _, mix := range mixes {
		for _, w := range mix {
			distinct[w.Name] = w
		}
	}

	all := append(append([]schemeDef{}, baselines...), schemes...)
	var isoJobs []Job
	for _, s := range all {
		for _, w := range distinct {
			isoJobs = append(isoJobs, Job{Workload: w, Spec: s.spec})
		}
	}
	po := o
	po.Config = cfg
	isoRes, err := runBatch(po, isoJobs)
	if err != nil {
		return nil, err
	}
	iso := map[string]float64{} // "spec/workload" → isolation IPC
	for i, r := range isoRes {
		iso[isoJobs[i].Spec.String()+"/"+isoJobs[i].Workload.Name] = r.IPC
	}

	// One pool run per (mix, scheme): baselines and schemes alike. Mix runs
	// always simulate locally (a Remote runner only covers single-core
	// batches), but they honour the batch context at epoch boundaries. Each
	// run writes its own slot of a preallocated per-scheme slice.
	type mixRun struct {
		mix int
		def schemeDef
	}
	var runs []mixRun
	wsVals := map[string][]float64{} // scheme name → per-mix weighted speedup
	for _, s := range all {
		wsVals[s.name] = make([]float64, len(mixes))
		for idx := range mixes {
			runs = append(runs, mixRun{idx, s})
		}
	}
	name := func(i int) string { return fmt.Sprintf("mix %d, %s", runs[i].mix, runs[i].def.name) }
	err = runPool(o, o.Label+" mixes", len(runs), name, func(i int) (bool, error) {
		r := runs[i]
		mix := mixes[r.mix]
		res, err := sim.RunMultiContext(o.ctx(), cfg, r.def.spec, mix, opt)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name(i), err)
		}
		ipc := make([]float64, len(mix))
		isoIPC := make([]float64, len(mix))
		for c, w := range mix {
			ipc[c] = res[c].IPC
			isoIPC[c] = iso[r.def.spec.String()+"/"+w.Name]
		}
		wsVals[r.def.name][r.mix] = stats.WeightedSpeedup(ipc, isoIPC)
		return false, nil
	})
	if err != nil {
		return nil, err
	}

	out := &MultiResult{
		Cores:    cores,
		Summary:  map[string]stats.Summary{},
		Speedups: map[string][]float64{},
	}
	for _, s := range schemes {
		base := strings.ToLower(strings.SplitN(s.name, "-", 2)[0]) + "-original"
		var pct []float64
		for idx := range mixes {
			b := wsVals[base][idx]
			if b <= 0 {
				continue
			}
			pct = append(pct, (wsVals[s.name][idx]/b-1)*100)
		}
		out.Schemes = append(out.Schemes, s.name)
		out.Speedups[s.name] = pct
		out.Summary[s.name] = stats.Summarize(pct)
	}
	return out, nil
}

// Render implements Renderer.
func (r *MultiResult) Render() string {
	var b strings.Builder
	fig := 14
	if r.Cores == 8 {
		fig = 15
	}
	fmt.Fprintf(&b, "Figure %d — %d-core weighted speedup %% over original, distribution across mixes\n",
		fig, r.Cores)
	fmt.Fprintf(&b, "%-14s %8s %8s %8s %8s %8s %8s %16s (n=%d)\n",
		"scheme", "min", "p25", "median", "p75", "max", "mean", "mean 95%CI", r.Summary[r.Schemes[0]].N)
	for _, s := range r.Schemes {
		sum := r.Summary[s]
		lo, hi := stats.BootstrapCI(r.Speedups[s], 0.95, 500)
		fmt.Fprintf(&b, "%-14s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f   [%5.1f,%5.1f]\n",
			s, sum.Min, sum.P25, sum.Median, sum.P75, sum.Max, sum.Mean, lo, hi)
	}
	return b.String()
}
