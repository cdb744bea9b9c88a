// Command perfbench is the repository's benchmark. It drives the simulator's
// layers from outside, through their public functions, in one process:
// Figure 8 regenerated locally through experiments (with a simcache result
// store), and a three-node psimd cluster driven through service.MultiClient. Every workload runs rounds of a cold pass (fresh
// stores, so every unit executes) followed by warm replays of the same
// units against the filled stores, checks that every pass produced the
// same output, and prints one JSON line of metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fig8-local --seed 1 --seconds 60 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
// run that prints the per-layer ledger and writes a Chrome trace and a CPU
// profile under .bench_build/perfbench/trace/. See README.md.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dtrace"
	"repro/internal/sim"
)

// defaultSeed is the seed whose outputs digests.json pins.
const defaultSeed = 1

// setupBuilds is how many dedicated harness builds precede each round.
// setup_s is the median of all of them. Each batch starts after a forced
// garbage collection and each build is closed before the next, so every
// sample is taken in the same state of the process, and the batches spread
// the samples over the run as the rounds spread the passes.
const setupBuilds = 40

// clusterChecks is how many cluster units per round are re-simulated
// locally and compared with what the cluster returned.
const clusterChecks = 4

//go:embed digests.json
var digestsJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig8-local or cluster-short")
	seed := fs.Uint64("seed", defaultSeed, "input seed, passed to the simulator as Options.Seed / RunOpt.Seed")
	seconds := fs.Float64("seconds", 30, "measurement budget: rounds run until another would exceed it")
	traced := fs.Int("trace", 0, "1 makes a traced run that reports the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	buildDir := filepath.Join(".bench_build", "perfbench")
	workDir := filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(workDir)

	r := &runner{
		wl:     wl,
		h:      harness{seed: *seed, nproc: runtime.NumCPU()},
		dir:    workDir,
		budget: time.Duration(*seconds * float64(time.Second)),
		out:    stdout,
	}
	var res result
	var err error
	if *traced != 0 {
		res, err = r.traced(context.Background(), filepath.Join(buildDir, "trace"))
	} else {
		res, err = r.timed(context.Background())
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner accumulates one invocation's rounds and output checks.
type runner struct {
	wl     workload
	h      harness
	dir    string
	budget time.Duration
	out    io.Writer

	rounds, builds       int
	setups, colds, warms []float64 // seconds, per dedicated build (setups) or per round
	lat                  []float64 // ms, per job of every cold pass
	hitCold, hitWarm     []float64
	attempted, failed    int
	ref                  []byte
	refUnits             [][]byte
	problems             []string
	dupExecs             int

	// profile, when set, receives a CPU profile of the next cold pass.
	profile *bytes.Buffer
	// coldCluster is the cluster counters' growth over the last cold pass.
	coldCluster cluster.StatsView
}

// build builds a fresh instance in a directory of its own and reports how
// long the build took. The empty store directories are made before the
// clock starts: a mkdir is the filesystem's work, not the harness's, and on
// a shared disk its latency swings between tens of microseconds and over a
// millisecond with other I/O, which would swamp a sub-millisecond build.
func (r *runner) build(flight bool) (instance, string, time.Duration, error) {
	h := r.h
	h.flight = flight
	h.dir = filepath.Join(r.dir, fmt.Sprintf("build-%d", r.builds))
	r.builds++
	for i := 0; i < r.wl.stores; i++ {
		if err := os.MkdirAll(h.storeDir(i), 0o755); err != nil {
			return nil, h.dir, 0, err
		}
	}
	t := time.Now()
	inst, err := r.wl.setup(h)
	d := time.Since(t)
	if err != nil {
		return nil, h.dir, d, fmt.Errorf("set up %s: %w", r.wl.name, err)
	}
	return inst, h.dir, d, nil
}

// measureSetup times a batch of setupBuilds dedicated builds into setups.
func (r *runner) measureSetup() error {
	runtime.GC()
	for i := 0; i < setupBuilds; i++ {
		inst, dir, d, err := r.build(false)
		if err != nil {
			return err
		}
		inst.close()
		removeAll(dir)
		r.setups = append(r.setups, d.Seconds())
	}
	return nil
}

// round builds a fresh instance and runs its cold pass and warm replays,
// checking every output. The instance is returned open so a traced run can
// take its ledger; the caller closes it.
func (r *runner) round(ctx context.Context, flight bool) (instance, string, error) {
	inst, dir, _, err := r.build(flight)
	if err != nil {
		return nil, dir, err
	}
	c, isCluster := inst.(*clusterInst)
	var before cluster.StatsView
	if isCluster {
		before = c.stats()
	}
	if r.profile != nil {
		if err := pprof.StartCPUProfile(r.profile); err != nil {
			inst.close()
			return nil, dir, err
		}
	}
	cctx, sp := dtrace.Start(ctx, "pass.cold")
	cold, err := inst.pass(cctx)
	sp.End()
	if r.profile != nil {
		pprof.StopCPUProfile()
	}
	if isCluster {
		after := c.stats()
		r.coldCluster = cluster.StatsView{
			RemoteHits:  after.RemoteHits - before.RemoteHits,
			ProxiedSims: after.ProxiedSims - before.ProxiedSims,
			Failovers:   after.Failovers - before.Failovers,
			StolenByUs:  after.StolenByUs - before.StolenByUs,
		}
	}
	if err != nil {
		inst.close()
		return nil, dir, err
	}
	r.check(cold)
	r.colds = append(r.colds, cold.wall.Seconds())
	r.lat = append(r.lat, cold.lat...)
	r.hitCold = append(r.hitCold, hitRatio(cold))
	var warm []time.Duration
	for i := 0; i < r.wl.warmReplays; i++ {
		wctx, sp := dtrace.Start(ctx, "pass.warm")
		p, err := inst.pass(wctx)
		sp.End()
		if err != nil {
			inst.close()
			return nil, dir, err
		}
		r.check(p)
		warm = append(warm, p.wall)
		r.hitWarm = append(r.hitWarm, hitRatio(p))
	}
	r.warms = append(r.warms, meanSeconds(warm))
	if isCluster {
		r.checkCluster(c)
	}
	r.rounds++
	return inst, dir, nil
}

func hitRatio(p pass) float64 {
	if p.lookups == 0 {
		return 0
	}
	return 1 - float64(p.execs)/float64(p.lookups)
}

// check accounts one pass and compares its output with the first pass's.
func (r *runner) check(p pass) {
	r.attempted += p.units
	r.failed += p.failed
	if r.ref == nil {
		if p.failed == 0 {
			r.ref, r.refUnits = p.out, p.perUnit
		}
		return
	}
	if p.perUnit != nil {
		bad := 0
		for i, b := range p.perUnit {
			if b != nil && i < len(r.refUnits) && !bytes.Equal(b, r.refUnits[i]) {
				bad++
			}
		}
		if bad > 0 {
			r.problem("%d units differ from the first pass", bad)
			r.failed += bad
		}
		return
	}
	if p.failed == 0 && !bytes.Equal(p.out, r.ref) {
		r.problem("a pass rendered a different figure")
		r.failed += p.units
	}
}

// checkCluster counts duplicate executions and re-simulates a few units
// locally, comparing them with what the cluster returned.
func (r *runner) checkCluster(c *clusterInst) {
	if dup := int(c.execs()) - c.uniqueKeys(); dup != 0 {
		r.problem("%d executions for %d unique keys", c.execs(), c.uniqueKeys())
		if dup > 0 {
			r.failed += dup
			r.dupExecs += dup
		}
	}
	lw := c.work()
	stride := len(lw.units)/clusterChecks + 1
	for k := 0; k < clusterChecks; k++ {
		u := lw.units[(r.rounds*7+k*stride)%len(lw.units)]
		got, ok := lw.result(u)
		want, err := sim.Run(lw.cfg, u.spec, u.w, lw.opt)
		if !ok || err != nil || !bytes.Equal(mustJSON(got), mustJSON(want)) {
			r.problem("cluster result for %s/%s differs from a local sim.Run", u.w.Name, u.spec)
			r.failed++
		}
	}
}

func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkDigest compares the default seed's output with the committed digest.
func (r *runner) checkDigest(unitsPerPass int) (string, error) {
	if r.ref == nil {
		r.problem("no pass completed without errors")
		return "", nil
	}
	sum := sha256.Sum256(r.ref)
	got := hex.EncodeToString(sum[:])
	if r.h.seed != defaultSeed {
		return got, nil
	}
	var want map[string]string
	if err := json.Unmarshal(digestsJSON, &want); err != nil {
		return got, fmt.Errorf("digests.json: %w", err)
	}
	if want[r.wl.name] != got {
		r.problem("output digest %s does not match the committed %q", got, want[r.wl.name])
		r.failed += unitsPerPass
	}
	return got, nil
}

// timed is the untraced run: set-up builds and a round, repeated until the
// budget is spent, then the end-to-end metrics.
func (r *runner) timed(ctx context.Context) (result, error) {
	start := time.Now()
	units := 0
	for {
		t := time.Now()
		if err := r.measureSetup(); err != nil {
			return result{}, err
		}
		inst, dir, err := r.round(ctx, false)
		if err != nil {
			return result{}, err
		}
		units = len(inst.work().units)
		inst.close()
		removeAll(dir)
		if time.Since(start)+time.Since(t) > r.budget {
			break
		}
	}
	digest, err := r.checkDigest(units)
	if err != nil {
		return result{}, err
	}
	m := map[string]metric{
		"setup_s":     {median(r.setups), "s"},
		"cold_s":      {median(r.colds), "s"},
		"warm_s":      {median(r.warms), "s"},
		"job_p50_ms":  {quantile(r.lat, 0.5), "ms"},
		"job_p90_ms":  {quantile(r.lat, 0.9), "ms"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
	counts := map[string]string{
		"setup_s":     summarize(r.setups).String() + " builds",
		"cold_s":      summarize(r.colds).String() + " cold passes",
		"warm_s":      summarize(r.warms).String() + fmt.Sprintf(" rounds of %d warm replays", r.wl.warmReplays),
		"job_p50_ms":  summarize(r.lat).String() + " jobs",
		"job_p90_ms":  fmt.Sprintf("p90 of n=%d jobs, %d beyond it", len(r.lat), beyond(r.lat, m["job_p90_ms"].Value)),
		"peak_rss_mb": "process high-water mark",
	}
	r.report(m, counts, digest)
	return r.result(m), nil
}

func (r *runner) result(m map[string]metric) result {
	return result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}
}

// report prints the human-readable table that precedes the JSON line.
func (r *runner) report(m map[string]metric, counts map[string]string, digest string) {
	fmt.Fprintf(r.out, "perfbench %s seed=%d nproc=%d GOMAXPROCS=%d %s rounds=%d\n",
		r.wl.name, r.h.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), r.rounds)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(r.out, "  %-34s %14.6g %-6s %s\n", k, m[k].Value, m[k].Unit, counts[k])
	}
	fmt.Fprintf(r.out, "  %-34s %14.6g %-6s %d of %d units failed, refused or mismatched\n",
		"fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	fmt.Fprintf(r.out, "  simcache.hit_ratio cold %.4g warm %.4g; output sha256 %s\n",
		median(r.hitCold), median(r.hitWarm), digest)
	fmt.Fprintf(r.out, "  cold passes (s): %s\n", fmtList(r.colds))
	for _, p := range r.problems {
		fmt.Fprintln(r.out, "  CHECK FAILED:", p)
	}
}

// removeAll deletes an instance's directory; a failure only leaves files
// under the benchmark's own build directory, so it is reported, not fatal.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fmtList(xs []float64) string {
	var b bytes.Buffer
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.4g", x)
	}
	return b.String()
}
