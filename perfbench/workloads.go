package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dtrace"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/trace"
)

// Pinned scales. Changing one changes what every workload measures and the
// committed output digests, so it is a new benchmark, not a tweak.
const (
	fig8Warmup, fig8Instr       = 10_000, 50_000
	clusterWarmup, clusterInstr = 5_000, 20_000
	clusterNodes                = 3
	samplesPerRun               = 8 // experiments.Options' Frac2M sample count
	multiCores                  = 4 // cores of the sim.setup_multi_us probe
)

// clusterBases are the base prefetchers whose four variants make one
// cluster-short job; with every catalogue workload that is 180 jobs a pass.
var clusterBases = []string{"spp", "bop"}

// fig8Variants are the columns Figure 8 simulates per workload.
var fig8Variants = []core.Variant{core.Original, core.PSA, core.PSA2MB, core.PSASD}

// workload is one benchmark scenario: how to build a fresh instance (its
// stores empty, so the first pass is cold), how many result stores it
// opens and how many warm replays one round averages. The cluster's
// replays stay below its node count: each pass starts its endpoint
// rotation one node further on, so a third replay would reach the nodes
// in the cold pass's order again and mostly read local hits, not
// cross-node fills (measured: the mean warm replay fell by a third).
type workload struct {
	name        string
	stores      int
	warmReplays int
	setup       func(h harness) (instance, error)
}

var workloads = []workload{
	{name: "fig8-local", stores: 1, warmReplays: 20, setup: setupFig8},
	{name: "cluster-short", stores: clusterNodes, warmReplays: 2, setup: setupCluster},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// harness is what an instance is built from.
type harness struct {
	seed   uint64
	nproc  int
	dir    string // fresh directory for the instance; see storeDir
	flight bool   // give cluster nodes span flight recorders
}

// storeDir is the directory of the instance's i-th result store.
func (h harness) storeDir(i int) string { return filepath.Join(h.dir, fmt.Sprintf("store%d", i)) }

// unit is one single-core simulation a pass requests.
type unit struct {
	w    trace.Workload
	spec sim.PrefSpec
}

// pass is the outcome of one cold or warm pass.
type pass struct {
	wall time.Duration
	// out is the rendered figure or the serialized result set; perUnit, when
	// set, splits it by unit so mismatches are counted unit by unit.
	out     []byte
	perUnit [][]byte
	lat     []float64 // per-job latency in ms
	units   int       // simulations the pass requested
	failed  int       // units that errored
	lookups uint64    // result-store lookups
	execs   uint64    // simulations executed (store misses)
}

// instance is a built harness: fresh stores (and nodes) for one round.
type instance interface {
	// pass runs every unit once; the first pass is cold, later ones warm.
	pass(ctx context.Context) (pass, error)
	// work lists what a pass simulates, for the per-layer ledger.
	work() ledgerWork
	close()
}

// ledgerWork is a pass's simulations as the ledger re-runs them.
type ledgerWork struct {
	cfg   sim.Config
	opt   sim.RunOpt
	units []unit
	// result returns the pass's result for a unit.
	result func(u unit) (sim.Result, bool)
}

func runOpt(h harness, warmup, instr uint64) sim.RunOpt {
	return sim.RunOpt{Warmup: warmup, Instructions: instr, Seed: h.seed, Samples: samplesPerRun}
}

// figInst regenerates Figure 8 locally through experiments, with a result
// store under the instance's directory.
type figInst struct {
	opts  experiments.Options
	store *simcache.Store
	lw    ledgerWork
}

func setupFig8(h harness) (instance, error) {
	store, err := simcache.New(h.storeDir(0))
	if err != nil {
		return nil, err
	}
	f := &figInst{store: store, opts: experiments.Options{
		Config:       sim.DefaultConfig(),
		Seed:         h.seed,
		Warmup:       fig8Warmup,
		Instructions: fig8Instr,
		Parallelism:  h.nproc,
		Workloads:    trace.Intensive(),
		Cache:        store,
	}}
	f.lw.cfg, f.lw.opt = f.opts.Config, runOpt(h, fig8Warmup, fig8Instr)
	for _, w := range f.opts.Workloads {
		for _, v := range fig8Variants {
			f.lw.units = append(f.lw.units, unit{w, sim.PrefSpec{Base: "spp", Variant: v}})
		}
	}
	f.lw.result = func(u unit) (sim.Result, bool) {
		return store.Get(simcache.Key(f.lw.cfg, u.spec, u.w, f.lw.opt))
	}
	return f, nil
}

func (f *figInst) pass(ctx context.Context) (pass, error) {
	ctx, sp := dtrace.Start(ctx, "experiments.Figure8")
	defer sp.End()
	o := f.opts
	o.Context = ctx
	before := f.store.Stats()
	start := time.Now()
	r, err := experiments.Figure8(o)
	// A figure is one job: every unit reaches the user when it returns.
	p := pass{wall: time.Since(start), units: len(f.lw.units)}
	p.lat = []float64{ms(p.wall)}
	after := f.store.Stats()
	p.lookups = (after.Hits + after.Shared + after.Misses) - (before.Hits + before.Shared + before.Misses)
	p.execs = after.Misses - before.Misses
	if err != nil {
		sp.Fail(err)
		p.failed = p.units
		return p, nil
	}
	p.out = []byte(r.Render())
	return p, nil
}

func (f *figInst) work() ledgerWork { return f.lw }
func (f *figInst) close()           {}

// clusterInst is three in-process psimd nodes on httptest listeners, joined
// by consistent-hash routing, driven closed-loop by nproc client goroutines
// through one MultiClient per pass.
type clusterInst struct {
	nodes  []*clusterNode
	jobs   [][]experiments.Job
	cfg    sim.Config
	opt    sim.RunOpt
	nproc  int
	passes int

	mu   sync.Mutex
	last map[string]sim.Result // unit key → result of the latest pass
}

type clusterNode struct {
	hs     *httptest.Server
	srv    *service.Server
	store  *simcache.Store
	flight *dtrace.Recorder
}

// flightCap holds every span a traced round records on one node.
const flightCap = 1 << 16

func setupCluster(h harness) (instance, error) {
	c := &clusterInst{cfg: sim.DefaultConfig(), opt: runOpt(h, clusterWarmup, clusterInstr), nproc: h.nproc}
	for _, base := range clusterBases {
		for _, w := range trace.All() {
			job := make([]experiments.Job, 0, len(fig8Variants))
			for _, v := range fig8Variants {
				job = append(job, experiments.Job{Workload: w, Spec: sim.PrefSpec{Base: base, Variant: v}})
			}
			c.jobs = append(c.jobs, job)
		}
	}
	// Listeners first: every node's cluster options name all peers' URLs.
	handlers := make([]atomic.Value, clusterNodes) // of http.Handler
	infos := make([]cluster.NodeInfo, clusterNodes)
	for i := range infos {
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h, _ := handlers[i].Load().(http.Handler)
			if h == nil {
				http.Error(w, "starting", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		}))
		infos[i] = cluster.NodeInfo{ID: fmt.Sprintf("node%d", i), URL: hs.URL}
		c.nodes = append(c.nodes, &clusterNode{hs: hs})
	}
	for i, n := range c.nodes {
		store, err := simcache.New(h.storeDir(i))
		if err != nil {
			c.close()
			return nil, err
		}
		n.store = store
		var flight *dtrace.Recorder
		if h.flight {
			flight = dtrace.NewRecorder(infos[i].ID, flightCap)
		}
		n.flight = flight
		n.srv = service.New(service.Config{
			Store:  store,
			Flight: flight,
			Cluster: &cluster.Options{
				Self:   infos[i],
				Seeds:  infos,
				Flight: flight,
			},
		})
		n.srv.Start()
		handlers[i].Store(n.srv.Handler())
	}
	return c, nil
}

func (c *clusterInst) pass(ctx context.Context) (pass, error) {
	// Each pass starts its endpoint rotation one node further on, so a
	// job's warm replay lands on a node that did not serve it cold: warm
	// passes are cross-node cache fills, not repeats of local hits.
	endpoints := make([]string, len(c.nodes))
	for i := range endpoints {
		endpoints[i] = c.nodes[(i+c.passes)%len(c.nodes)].hs.URL
	}
	c.passes++
	mc, err := service.NewMultiClient(endpoints)
	if err != nil {
		return pass{}, err
	}
	before := c.execs()
	results := make([][]sim.Result, len(c.jobs))
	errs := make([]error, len(c.jobs))
	lat := make([]float64, len(c.jobs))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < c.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(c.jobs) {
					return
				}
				jctx, sp := dtrace.Start(ctx, "service.MultiClient.RunBatch")
				sp.Annotate(c.jobs[i][0].Workload.Name + "/" + c.jobs[i][0].Spec.Base)
				t := time.Now()
				results[i], errs[i] = mc.RunBatch(jctx, c.cfg, c.jobs[i], c.opt, nil)
				lat[i] = ms(time.Since(t))
				sp.Fail(errs[i])
				sp.End()
			}
		}()
	}
	wg.Wait()
	p := pass{wall: time.Since(start), lat: lat}
	last := map[string]sim.Result{}
	var out bytes.Buffer
	for i, job := range c.jobs {
		p.units += len(job)
		for k, j := range job {
			if errs[i] != nil || k >= len(results[i]) {
				p.failed++
				p.perUnit = append(p.perUnit, nil)
				continue
			}
			b, err := json.Marshal(results[i][k])
			if err != nil {
				return p, err
			}
			p.perUnit = append(p.perUnit, b)
			out.Write(b)
			out.WriteByte('\n')
			last[simcache.Key(c.cfg, j.Spec, j.Workload, c.opt)] = results[i][k]
		}
	}
	p.out = out.Bytes()
	p.execs = c.execs() - before
	p.lookups = uint64(p.units)
	c.mu.Lock()
	c.last = last
	c.mu.Unlock()
	return p, nil
}

// execs is the number of simulations executed cluster-wide (store misses).
func (c *clusterInst) execs() uint64 {
	var n uint64
	for _, nd := range c.nodes {
		if nd.store != nil {
			n += nd.store.Stats().Misses
		}
	}
	return n
}

// uniqueKeys is how many distinct simulations one pass requests.
func (c *clusterInst) uniqueKeys() int {
	keys := map[string]bool{}
	for _, job := range c.jobs {
		for _, j := range job {
			keys[simcache.Key(c.cfg, j.Spec, j.Workload, c.opt)] = true
		}
	}
	return len(keys)
}

// stats sums the nodes' cluster counters.
func (c *clusterInst) stats() cluster.StatsView {
	var s cluster.StatsView
	for _, nd := range c.nodes {
		if nd.srv == nil || nd.srv.Cluster() == nil {
			continue
		}
		v := nd.srv.Cluster().Stats()
		s.RemoteHits += v.RemoteHits
		s.ProxiedSims += v.ProxiedSims
		s.Failovers += v.Failovers
		s.StolenByUs += v.StolenByUs
		s.StolenFromUs += v.StolenFromUs
		s.EntriesServed += v.EntriesServed
	}
	return s
}

// flightSpans fetches every node's flight recorder over its public debug
// endpoint and reports how many spans the rings dropped.
func (c *clusterInst) flightSpans(ctx context.Context) ([][]dtrace.SpanData, uint64, error) {
	var sets [][]dtrace.SpanData
	var dropped uint64
	for _, nd := range c.nodes {
		if nd.flight == nil {
			continue
		}
		spans, err := service.NewClient(nd.hs.URL).Flight(ctx, "")
		if err != nil {
			return nil, 0, fmt.Errorf("flight dump of %s: %w", nd.hs.URL, err)
		}
		sets = append(sets, spans)
		dropped += nd.flight.Dropped()
	}
	return sets, dropped, nil
}

func (c *clusterInst) work() ledgerWork {
	lw := ledgerWork{cfg: c.cfg, opt: c.opt}
	for _, job := range c.jobs {
		for _, j := range job {
			lw.units = append(lw.units, unit{j.Workload, j.Spec})
		}
	}
	lw.result = func(u unit) (sim.Result, bool) {
		c.mu.Lock()
		defer c.mu.Unlock()
		r, ok := c.last[simcache.Key(c.cfg, u.spec, u.w, c.opt)]
		return r, ok
	}
	return lw
}

func (c *clusterInst) close() {
	for _, nd := range c.nodes {
		if nd.srv != nil {
			nd.srv.Close()
		}
		nd.hs.Close()
	}
}
