package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// benchCap holds every span the benchmark itself records in a traced run.
const benchCap = 1 << 16

// multiSetupSamples is how many four-core constructions sim.setup_multi_us
// is the median of.
const multiSetupSamples = 25

// spanMetrics maps each span-timed per-layer metric to the span it is the
// median duration of.
var spanMetrics = map[string]string{
	"service.submit_ms":     "submit",
	"service.queue_wait_ms": "job.queue_wait",
	"service.job_run_ms":    "job.run",
	"cluster.fill_ms":       "cache.fill",
	"cluster.proxy_ms":      "proxy.exec",
	"cluster.steal_wait_ms": "steal.wait",
}

// traced is the per-layer run, separate from the timed ones: a traced round
// (spans from the benchmark's calls and every cluster node's flight
// recorder, and a CPU profile of the cold pass) between two untraced rounds
// (the overhead baseline), then a ledger that re-drives each layer's public
// functions on the traced round's own units.
func (r *runner) traced(ctx context.Context, outDir string) (result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	// Untraced rounds before and after the traced one: their mean is the
	// overhead baseline, so warm-up and drift do not bias the difference.
	untraced := func() error {
		inst, dir, err := r.round(ctx, false)
		if err != nil {
			return err
		}
		inst.close()
		removeAll(dir)
		return nil
	}
	if err := untraced(); err != nil {
		return result{}, err
	}
	rec := dtrace.NewRecorder("perfbench", benchCap)
	tctx := dtrace.NewContext(ctx, rec, dtrace.SpanContext{})
	prof := new(bytes.Buffer)
	r.profile = prof
	inst, dir, err := r.round(tctx, true)
	r.profile = nil
	if err != nil {
		return result{}, err
	}
	defer removeAll(dir)
	m := map[string]metric{}
	var nodeSpans [][]dtrace.SpanData
	var dropped uint64
	c, isCluster := inst.(*clusterInst)
	var cs cluster.StatsView
	coldCluster := r.coldCluster
	if isCluster {
		nodeSpans, dropped, err = c.flightSpans(ctx)
		if err != nil {
			inst.close()
			return result{}, err
		}
		cs = c.stats()
	}
	// The traced nodes stop before the second untraced round and the
	// ledger, so nothing else runs or allocates beside them.
	inst.close()
	if err := untraced(); err != nil {
		return result{}, err
	}
	tracedCold := r.colds[1]
	untracedCold := (r.colds[0] + r.colds[2]) / 2

	if err := r.ledger(tctx, inst.work(), untracedCold, m); err != nil {
		return result{}, err
	}
	m["cluster.remote_hits"] = metric{float64(cs.RemoteHits), "count"}
	m["cluster.proxied"] = metric{float64(cs.ProxiedSims), "count"}
	m["cluster.stolen"] = metric{float64(cs.StolenByUs), "count"}
	m["cluster.failovers"] = metric{float64(cs.Failovers), "count"}
	remote := coldCluster.ProxiedSims + coldCluster.RemoteHits + coldCluster.Failovers
	m["cluster.remote_owned_ratio"] = metric{ratio(float64(remote), float64(len(inst.work().units))), "ratio"}
	m["cluster.dup_execs"] = metric{float64(r.dupExecs), "count"}
	m["simcache.hit_ratio_cold"] = metric{median(r.hitCold), "ratio"}
	m["simcache.hit_ratio_warm"] = metric{median(r.hitWarm), "ratio"}

	shares, _, err := layerShares(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("cold-pass CPU profile: %w", err)
	}
	for _, l := range cpuLayers() {
		m[l+".cpu_share"] = metric{shares[l], "ratio"}
	}

	spans := dtrace.Stitch(append([][]dtrace.SpanData{rec.Snapshot(dtrace.Filter{})}, nodeSpans...)...)
	dropped += rec.Dropped()
	dur := spanDurations(spans)
	for name, span := range spanMetrics {
		v := 0.0
		if len(dur[span]) > 0 {
			v = median(dur[span])
		}
		m[name] = metric{v, "ms"}
	}
	m["bench.cold_s_untraced"] = metric{untracedCold, "s"}
	m["bench.cold_s_traced"] = metric{tracedCold, "s"}
	m["bench.trace_overhead_s"] = metric{tracedCold - untracedCold, "s"}
	m["bench.dropped_spans"] = metric{float64(dropped), "count"}
	m["bench.spans"] = metric{float64(len(spans)), "count"}

	self := selfTimes(spans)
	if err := r.writeArtifacts(outDir, spans, prof.Bytes(), m, self); err != nil {
		return result{}, err
	}
	digest, err := r.checkDigest(len(inst.work().units))
	if err != nil {
		return result{}, err
	}
	r.reportLedger(m, self, dur, digest)
	return r.result(m), nil
}

// ledger re-drives each layer's public functions on the pass's own units
// and fills the per-layer metrics. It runs single-threaded after the
// round's nodes stopped, so the process-wide allocation counters it reads
// around each sim.Run belong to that run.
func (r *runner) ledger(ctx context.Context, lw ledgerWork, coldS float64, m map[string]metric) error {
	ctx, root := dtrace.Start(ctx, "pass.ledger")
	defer root.End()
	call := func(name string, fn func()) time.Duration {
		_, sp := dtrace.Start(ctx, name)
		t := time.Now()
		fn()
		d := time.Since(t)
		sp.End()
		return d
	}

	// Results and simcache timings on the workload's own results.
	store, err := simcache.New(filepath.Join(r.dir, "ledger-store"))
	if err != nil {
		return err
	}
	defer removeAll(store.Dir())
	var results []sim.Result
	var keyT, putT, getT []float64
	for _, u := range lw.units {
		res, ok := lw.result(u)
		if !ok {
			return fmt.Errorf("ledger: no pass result for %s/%s", u.w.Name, u.spec)
		}
		results = append(results, res)
		var key string
		var perr error
		var got sim.Result
		var hit bool
		keyT = append(keyT, us(call("simcache.Key", func() { key = simcache.Key(lw.cfg, u.spec, u.w, lw.opt) })))
		putT = append(putT, us(call("simcache.Put", func() { perr = store.Put(key, res) })))
		getT = append(getT, us(call("simcache.Get", func() { got, hit = store.Get(key) })))
		if perr != nil {
			return fmt.Errorf("ledger: simcache.Put: %w", perr)
		}
		if gb, rb := mustJSON(got), mustJSON(res); !hit || !bytes.Equal(gb, rb) {
			r.problem("simcache round trip changed the result of %s/%s", u.w.Name, u.spec)
			r.failed++
		}
	}
	m["simcache.key_us"] = metric{median(keyT), "us"}
	m["simcache.put_us"] = metric{median(putT), "us"}
	m["simcache.get_us"] = metric{median(getT), "us"}
	countMetrics(results, m)

	// Per workload: the generator drained for the accesses one simulation
	// consumes, and the same run without a prefetcher.
	type wlCost struct {
		accesses uint64
		none     time.Duration
	}
	costs := map[string]*wlCost{}
	var drainT time.Duration
	var drained uint64
	instrs := lw.opt.Warmup + lw.opt.Instructions
	for _, u := range lw.units {
		if costs[u.w.Name] != nil {
			continue
		}
		c := &wlCost{}
		drainT += call("trace.Workload.New", func() { c.accesses = drain(u.w, lw.opt.Seed, instrs) })
		drained += c.accesses
		var err error
		c.none = call("sim.Run.none", func() { _, err = sim.Run(lw.cfg, sim.PrefSpec{Base: "none"}, u.w, lw.opt) })
		if err != nil {
			return err
		}
		costs[u.w.Name] = c
	}
	m["trace.ns_per_access"] = metric{ratio(float64(drainT.Nanoseconds()), float64(drained)), "ns"}

	// Per unit: construction alone (a zero-length window), then the full
	// run with its allocations.
	zero := sim.RunOpt{Seed: lw.opt.Seed, Samples: lw.opt.Samples}
	var setupTotal, unitTotal, prefDiff time.Duration
	var setups []float64
	var accesses, prefAccesses, mallocs, allocBytes uint64
	var ms0, ms1 runtime.MemStats
	for _, u := range lw.units {
		var err error
		setup := call("sim.Run.setup", func() { _, err = sim.Run(lw.cfg, u.spec, u.w, zero) })
		if err != nil {
			return err
		}
		setups = append(setups, us(setup))
		runtime.ReadMemStats(&ms0)
		d := call("sim.Run", func() { _, err = sim.Run(lw.cfg, u.spec, u.w, lw.opt) })
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return err
		}
		c := costs[u.w.Name]
		setupTotal += setup
		unitTotal += d
		accesses += c.accesses
		mallocs += ms1.Mallocs - ms0.Mallocs
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		if u.spec.Base != "" && u.spec.Base != "none" {
			prefDiff += d - c.none
			prefAccesses += c.accesses
		}
	}
	m["sim.setup_us"] = metric{median(setups), "us"}
	m["sim.ns_per_access"] = metric{ratio(float64(unitTotal.Nanoseconds()), float64(accesses)), "ns"}
	m["sim.allocs_per_access"] = metric{ratio(float64(mallocs), float64(accesses)), "count"}
	m["sim.bytes_per_access"] = metric{ratio(float64(allocBytes), float64(accesses)), "B"}
	m["prefetch.ns_per_access"] = metric{ratio(float64(prefDiff.Nanoseconds()), float64(prefAccesses)), "ns"}

	// Multi-core: construction of a four-core system of the pass's first
	// four workloads.
	mix := firstWorkloads(lw.units, multiCores)
	var multiSetups []float64
	for i := 0; i < multiSetupSamples; i++ {
		var err error
		d := call("sim.RunMulti.setup", func() { _, err = sim.RunMulti(lw.cfg, lw.units[0].spec, mix, zero) })
		if err != nil {
			return err
		}
		multiSetups = append(multiSetups, us(d))
	}
	m["sim.setup_multi_us"] = metric{median(multiSetups), "us"}
	m["sim.setup_share"] = metric{ratio(float64(setupTotal), float64(unitTotal)), "ratio"}
	m["experiments.parallel_efficiency"] = metric{ratio(unitTotal.Seconds(), coldS*float64(r.h.nproc)), "ratio"}
	return nil
}

// drain pulls accesses from a fresh generator until they cover instrs
// instructions (each access retires its Gap plus itself), returning the
// access count: what one simulation of that length consumes.
func drain(w trace.Workload, seed, instrs uint64) uint64 {
	rd := w.New(seed)
	var a trace.Access
	var n, ins uint64
	for ins < instrs && rd.Next(&a) {
		n++
		ins += uint64(a.Gap) + 1
	}
	return n
}

// firstWorkloads returns the first n distinct workloads of units (every
// pass has far more than n).
func firstWorkloads(units []unit, n int) []trace.Workload {
	var out []trace.Workload
	seen := map[string]bool{}
	for _, u := range units {
		if len(out) == n {
			break
		}
		if !seen[u.w.Name] {
			seen[u.w.Name] = true
			out = append(out, u.w)
		}
	}
	return out
}

// countMetrics sums the simulated work of the units' results. These counts
// are deterministic: a change that only speeds the simulator up must leave
// every one identical.
func countMetrics(rs []sim.Result, m map[string]metric) {
	var l1d, l2m, llcm, useful, pfIssued, tlb2m, walks, issued, crossed, reads, rowHits, rowMisses uint64
	var frac float64
	for _, r := range rs {
		l1d += r.L1D.Hits + r.L1D.Misses
		l2m += r.L2.DemandMisses
		llcm += r.LLC.DemandMisses
		useful += r.L2.PrefetchUseful
		pfIssued += r.L2.PrefetchIssued
		tlb2m += r.TLBL2Misses
		walks += r.Walks
		issued += r.Engine.Issued
		crossed += r.Engine.CrossedPage4K
		reads += r.DRAM.Reads
		rowHits += r.DRAM.RowHits
		rowMisses += r.DRAM.RowMisses
		frac += r.Frac2MFinal
	}
	m["cache.l1d_accesses"] = metric{float64(l1d), "count"}
	m["cache.l2_demand_misses"] = metric{float64(l2m), "count"}
	m["cache.llc_demand_misses"] = metric{float64(llcm), "count"}
	m["cache.prefetch_useful_ratio"] = metric{ratio(float64(useful), float64(pfIssued)), "ratio"}
	m["vm.tlb_l2_misses"] = metric{float64(tlb2m), "count"}
	m["vm.walks"] = metric{float64(walks), "count"}
	m["vm.frac_2m"] = metric{ratio(frac, float64(len(rs))), "ratio"}
	m["prefetch.issued"] = metric{float64(issued), "count"}
	m["prefetch.crossed_4k_ratio"] = metric{ratio(float64(crossed), float64(issued)), "ratio"}
	m["dram.reads"] = metric{float64(reads), "count"}
	m["dram.row_hit_ratio"] = metric{ratio(float64(rowHits), float64(rowHits+rowMisses)), "ratio"}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // sim.Result is plain data; marshaling cannot fail
	}
	return b
}

// spanDurations groups span durations (ms) by span name.
func spanDurations(spans []dtrace.SpanData) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.EndNS-s.StartNS)/1e6)
	}
	return out
}

// selfTime is one span name's total self time: each span's duration minus
// the part of it that its children cover.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	TotMS  float64 `json:"total_ms"`
}

func selfTimes(spans []dtrace.SpanData) []selfTime {
	children := map[string][]dtrace.SpanData{}
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.TraceID+"/"+s.ParentID] = append(children[s.TraceID+"/"+s.ParentID], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		covered := coveredNS(s, children[s.TraceID+"/"+s.SpanID])
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotMS += float64(s.EndNS-s.StartNS) / 1e6
		st.SelfMS += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// coveredNS is how much of parent's interval the union of its children's
// intervals covers. Children of concurrent work may overlap each other, so
// the union, not the sum, is subtracted.
func coveredNS(parent dtrace.SpanData, kids []dtrace.SpanData) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// writeArtifacts writes the stitched Chrome trace, the cold-pass CPU
// profile and the ledger under outDir.
func (r *runner) writeArtifacts(outDir string, spans []dtrace.SpanData, prof []byte, m map[string]metric, self []selfTime) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", r.wl.name, r.h.seed))
	var tr bytes.Buffer
	if err := dtrace.WriteChromeTrace(&tr, spans); err != nil {
		return err
	}
	var events []map[string]any
	if err := json.Unmarshal(tr.Bytes(), &events); err != nil || len(events) == 0 {
		return fmt.Errorf("chrome trace is not a non-empty JSON event array: %v", err)
	}
	ledger, err := json.MarshalIndent(struct {
		Workload string            `json:"workload"`
		Seed     uint64            `json:"seed"`
		Metrics  map[string]metric `json:"metrics"`
		SelfTime []selfTime        `json:"self_time"`
	}{r.wl.name, r.h.seed, m, self}, "", "  ")
	if err != nil {
		return err
	}
	for name, b := range map[string][]byte{
		base + ".trace.json":  tr.Bytes(),
		base + ".cpu.pprof":   prof,
		base + ".ledger.json": ledger,
	} {
		if err := os.WriteFile(name, b, 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(r.out, "perfbench wrote %s.{trace.json,cpu.pprof,ledger.json}\n", base)
	return nil
}

// reportLedger prints the per-layer table and the span self times.
func (r *runner) reportLedger(m map[string]metric, self []selfTime, dur map[string][]float64, digest string) {
	counts := map[string]string{}
	for name, span := range spanMetrics {
		counts[name] = summarize(dur[span]).String() + " " + span + " spans"
	}
	r.report(m, counts, digest)
	fmt.Fprintf(r.out, "  span self time (span minus children), top %d of %d names:\n", min(len(self), 15), len(self))
	for _, s := range self[:min(len(self), 15)] {
		fmt.Fprintf(r.out, "    %-34s n=%-6d self %10.2f ms  total %10.2f ms\n", s.Name, s.Count, s.SelfMS, s.TotMS)
	}
}
