// Package experiments regenerates every table and figure of the paper's
// evaluation: the missed-opportunity probability (Fig. 2), page-usage
// profiles (Fig. 3), the Magic studies (Figs. 4-5), the per-workload and
// per-suite speedups (Figs. 8-9), the metric breakdown (Fig. 10), the
// selection-logic comparison (Fig. 11), the constrained sweeps (Fig. 12), the
// L1D-prefetching comparison (Fig. 13), and the multi-core distributions
// (Figs. 14-15). Each experiment returns a structured result with a Render
// method producing the textual equivalent of the paper's plot.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"repro/internal/progress"
	"repro/internal/sim"
	"repro/internal/simcache"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options scales an experiment run.
type Options struct {
	Config       sim.Config
	Warmup       uint64
	Instructions uint64
	Seed         uint64
	Parallelism  int
	// Workloads overrides the workload set (default: the 80 intensive ones).
	Workloads []trace.Workload
	// Mixes is the number of random multi-core mixes (Figs. 14-15).
	Mixes int
	// Base selects the prefetcher for per-prefetcher studies (fig8); "spp"
	// when empty.
	Base string
	// Cache memoizes single-core simulation results on disk, so repeated or
	// interrupted figure runs only simulate cache misses. Nil disables
	// caching.
	Cache *simcache.Store
	// Progress receives live per-batch status lines (jobs done/total, cache
	// hit rate, sims/sec, ETA), rewritten in place with carriage returns.
	// Nil disables reporting.
	Progress io.Writer
	// Label prefixes progress lines; Run sets it to the experiment name.
	Label string
	// Context cancels in-flight batches: workers stop at the next
	// simulation-chunk boundary and the batch returns the context's error.
	// Nil means context.Background() (uncancellable, the historical
	// behaviour).
	Context context.Context
	// Remote dispatches single-core batches to a simulation service (psimd)
	// instead of simulating locally; the service owns caching and dedup.
	// Multi-core mix runs (figs 14-15) always simulate locally. Nil runs
	// everything locally.
	Remote BatchRunner
	// TelemetryDir, when set, writes a per-epoch telemetry series (JSONL) for
	// every locally simulated job under TelemetryDir/<experiment>/. Jobs
	// served from the result cache or a Remote runner produce no artifact
	// (there is no live simulation to sample); combine with a disabled cache
	// to force artifacts for every job.
	TelemetryDir string
	// EpochInstructions is the telemetry sampling period
	// (sim.DefaultEpochInstructions when zero).
	EpochInstructions uint64
}

// BatchRunner executes a batch of single-core simulations somewhere else —
// implemented by service.Client over psimd's HTTP API. The runner reports
// per-job completions (and whether each was served from a cache) to tr.
type BatchRunner interface {
	RunBatch(ctx context.Context, cfg sim.Config, jobs []Job, opt sim.RunOpt, tr *progress.Tracker) ([]sim.Result, error)
}

// DefaultOptions returns a laptop-scale configuration: long enough for the
// shapes to be stable, short enough that regenerating a figure takes minutes.
func DefaultOptions() Options {
	return Options{
		Config:       sim.DefaultConfig(),
		Warmup:       200_000,
		Instructions: 1_000_000,
		Seed:         1,
		Parallelism:  8,
		Mixes:        20,
	}
}

func (o Options) workloads() []trace.Workload {
	if len(o.Workloads) != 0 {
		return o.Workloads
	}
	return trace.Intensive()
}

func (o Options) runOpt() sim.RunOpt {
	return sim.RunOpt{
		Warmup:       o.Warmup,
		Instructions: o.Instructions,
		Seed:         o.Seed,
		Samples:      8,
	}
}

// ctx returns the batch context, defaulting to Background.
func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Job is one simulation in a batch: a workload paired with a prefetcher
// configuration. Exported so remote batch runners (the psimd client) can
// receive the exact work a figure wants.
type Job struct {
	Workload trace.Workload
	Spec     sim.PrefSpec
}

// runBatch executes all jobs with bounded parallelism, returning results in
// job order. When a result cache is configured, each job first consults it
// and only cache misses simulate. A Remote runner, when set, executes the
// whole batch on a simulation service instead.
func runBatch(o Options, jobs []Job) ([]sim.Result, error) {
	if o.Remote != nil {
		tr := progress.New(o.Progress, o.Label, len(jobs))
		results, err := o.Remote.RunBatch(o.ctx(), o.Config, jobs, o.runOpt(), tr)
		tr.Finish()
		return results, err
	}
	results := make([]sim.Result, len(jobs))
	name := func(i int) string { return "job " + jobs[i].Workload.Name + "/" + jobs[i].Spec.String() }
	err := runPool(o, o.Label, len(jobs), name, func(i int) (hit bool, err error) {
		results[i], hit, err = runOne(o.ctx(), o, jobs[i])
		return hit, err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// runPool is the one bounded worker pool every locally simulated experiment
// run goes through, single-core job or mix: it runs task(0..n-1) on at most
// o.Parallelism goroutines, reporting each completion (and whether it was a
// cache hit) on a progress line under label. A task still queued when the
// context is canceled does not start. A panicking task (a broken prefetcher,
// a corrupt trace) fails with its own error, naming it by name(i), instead of
// crashing the process. Every failure is surfaced, joined, rather than just
// the first.
func runPool(o Options, label string, n int, name func(i int) string, task func(i int) (hit bool, err error)) error {
	ctx := o.ctx()
	tr := progress.New(o.Progress, label, n)
	errs := make([]error, n)
	sem := make(chan struct{}, max(o.Parallelism, 1))
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("experiments: %s panicked: %v\n%s", name(i), r, debug.Stack())
				}
			}()
			if errs[i] = ctx.Err(); errs[i] != nil {
				return // canceled while queued: don't start the simulation
			}
			var hit bool
			hit, errs[i] = task(i)
			tr.Step(hit)
		}()
	}
	wg.Wait()
	tr.Finish()
	return errors.Join(errs...)
}

// runOne executes (or recalls) a single simulation, reporting whether it was
// served from the cache. In-process duplicates of one key — common when
// figure batches share baselines — are de-duplicated by the store's
// single-flight DoContext.
func runOne(ctx context.Context, o Options, j Job) (sim.Result, bool, error) {
	run := func(ctx context.Context) (sim.Result, error) {
		if o.TelemetryDir == "" {
			return sim.RunContext(ctx, o.Config, j.Spec, j.Workload, o.runOpt())
		}
		ins := &sim.Instrumentation{
			Collector:         telemetry.NewCollector(),
			EpochInstructions: o.EpochInstructions,
		}
		r, err := sim.RunContext(sim.WithInstrumentation(ctx, ins), o.Config, j.Spec, j.Workload, o.runOpt())
		if err == nil {
			err = writeJobTelemetry(o, j, ins.Collector)
		}
		return r, err
	}
	if o.Cache == nil {
		r, err := run(ctx)
		return r, false, err
	}
	key := simcache.Key(o.Config, j.Spec, j.Workload, o.runOpt())
	return o.Cache.DoContext(ctx, key, run)
}

// writeJobTelemetry writes one job's epoch series under
// TelemetryDir/<experiment>/<workload>__<spec>.jsonl.
func writeJobTelemetry(o Options, j Job, c *telemetry.Collector) error {
	dir := filepath.Join(o.TelemetryDir, sanitizeName(o.Label))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := sanitizeName(j.Workload.Name) + "__" + sanitizeName(j.Spec.String()) + ".jsonl"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := c.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sanitizeName makes a workload or spec name filesystem-safe (trace-replay
// workloads are named by their path; L1 specs contain '+').
func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', '*', '?', '"', '<', '>', '|', ' ':
			return '-'
		}
		return r
	}, s)
}

// speedupPct converts an IPC pair into percent speedup.
func speedupPct(base, variant float64) float64 {
	if base <= 0 {
		return 0
	}
	return (variant/base - 1) * 100
}

// Names of experiments, for the CLI.
var Names = []string{
	"fig2", "fig3", "fig4", "fig5", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "nonintensive", "table1",
	"ablation", "extensions", "crossing",
}

// Renderer is any experiment result that can print itself.
type Renderer interface {
	Render() string
}

// Run dispatches an experiment by name.
func Run(name string, o Options) (Renderer, error) {
	if o.Label == "" {
		o.Label = strings.ToLower(name)
		// Bare figure numbers ("-fig 8") label as the canonical name.
		if _, err := strconv.Atoi(o.Label); err == nil {
			o.Label = "fig" + o.Label
		}
	}
	switch strings.ToLower(name) {
	case "fig2", "2":
		return Figure2(o)
	case "fig3", "3":
		return Figure3(o)
	case "fig4", "4":
		return Figure4(o)
	case "fig5", "5":
		return Figure5(o)
	case "fig8", "8":
		if o.Base != "" && o.Base != "spp" {
			return variantStudy(o, o.Base)
		}
		return Figure8(o)
	case "fig9", "9":
		return Figure9(o)
	case "fig10", "10":
		return Figure10(o)
	case "fig11", "11":
		return Figure11(o)
	case "fig12", "12":
		return Figure12(o)
	case "fig13", "13":
		return Figure13(o)
	case "fig14", "14":
		return Figure14(o)
	case "fig15", "15":
		return Figure15(o)
	case "nonintensive":
		return NonIntensive(o)
	case "ablation":
		return Ablation(o)
	case "extensions":
		return Extensions(o)
	case "crossing":
		return Crossing(o)
	case "table1":
		return TableI(o)
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
		name, strings.Join(Names, ", "))
}

// TableIResult is the machine configuration (Table I).
type TableIResult struct{ Text string }

// Render implements Renderer.
func (t *TableIResult) Render() string { return t.Text }

// TableI reports the simulated system configuration.
func TableI(o Options) (*TableIResult, error) {
	return &TableIResult{Text: "Table I — system configuration\n" + o.Config.String() + "\n"}, nil
}

// nineBenchmarks are the workloads of Figures 3, 4, and 5.
var nineBenchmarks = []string{
	"lbm", "milc", "libquantum", "mcf", "soplex", "bwaves",
	"fotonik3d_s", "roms_s", "pr.road",
}

// WorkloadsByName resolves a list of workload names against the catalogue.
func WorkloadsByName(names []string) ([]trace.Workload, error) {
	out := make([]trace.Workload, 0, len(names))
	for _, n := range names {
		w, err := trace.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// representative10 are the Figure 10 workloads (the paper's selection,
// mapped onto our catalogue names).
var representative10 = []string{
	"bwaves", "milc", "GemsFDTD", "astar", "gcc_s", "cactuBSSN_s",
	"fotonik3d_s", "pr.road", "graph_analytics",
	"qmm_fp_15", "qmm_int_906", "qmm_fp_67", "qmm_fp_95", "qmm_fp_112",
}

// sortedSuites returns the suite grouping used by Figure 9: SPEC (06+17),
// GAP+ML+CLOUD, QMM, ALL.
func suiteOf(w trace.Workload) string {
	switch w.Suite {
	case trace.SuiteSPEC06, trace.SuiteSPEC17:
		return "SPEC"
	case trace.SuiteGAP, trace.SuiteML, trace.SuiteCloud:
		return "GAP+ML+CLOUD"
	default:
		return "QMM"
	}
}

func suiteOrder() []string { return []string{"SPEC", "GAP+ML+CLOUD", "QMM", "ALL"} }
