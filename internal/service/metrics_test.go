package service

import (
	"bufio"
	"context"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// fixedSim returns a sim function producing a fixed, fully populated result,
// so telemetry aggregates are exactly predictable.
func fixedSim(res sim.Result) simFunc {
	return func(ctx context.Context, cfg sim.Config, spec sim.PrefSpec, w trace.Workload, opt sim.RunOpt) (sim.Result, error) {
		r := res
		r.Workload, r.Spec = w.Name, spec.String()
		return r, nil
	}
}

// telemetryFixture is a result with every counter the job aggregate reads.
func telemetryFixture() sim.Result {
	r := sim.Result{Instructions: 1000, Cycles: 2000, IPC: 0.5}
	r.L1D.DemandHits, r.L1D.DemandMisses = 900, 100
	r.L2.DemandHits, r.L2.DemandMisses = 60, 40
	r.LLC.DemandHits, r.LLC.DemandMisses = 30, 10
	r.L2.PrefetchUseful, r.L2.PrefetchLate, r.L2.PrefetchUnused = 16, 4, 20
	r.Engine.Issued, r.Engine.CrossedPage4K = 50, 10
	return r
}

// validateExposition asserts body is valid Prometheus text exposition: every
// family is announced with HELP and TYPE lines before its samples, every
// sample belongs to the family most recently announced (histogram families
// accept the _bucket/_sum/_count sample suffixes, with le required on
// _bucket), and every value parses as a float. A histogram's buckets must be
// cumulative: le strictly ascending, counts non-decreasing, ending in a
// le="+Inf" bucket that equals _count. It returns the families in
// announcement order and each family's sample count.
func validateExposition(t *testing.T, body string) ([]string, map[string]int) {
	t.Helper()
	var (
		helpRe   = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
		typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram|summary|untyped)$`)
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? (\S+)$`)
	)
	seen := map[string]int{} // family → sample count
	var families []string
	current := ""     // family announced by the latest TYPE line
	currentType := "" // its declared type
	helped := ""      // family announced by the latest HELP line
	// The current histogram's last bucket: its le bound and cumulative count,
	// and whether it was the +Inf bucket.
	var lastLE, lastBucket float64
	sawInf := false
	leRe := regexp.MustCompile(`le="([^"]*)"`)
	sc := bufio.NewScanner(strings.NewReader(body))
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case text == "":
			t.Errorf("line %d: blank line in exposition", line)
		case strings.HasPrefix(text, "# HELP "):
			m := helpRe.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed HELP: %q", line, text)
			}
			if _, dup := seen[m[1]]; dup {
				t.Errorf("line %d: family %s announced twice", line, m[1])
			}
			helped = m[1]
		case strings.HasPrefix(text, "# TYPE "):
			m := typeRe.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed TYPE: %q", line, text)
			}
			if m[1] != helped {
				t.Errorf("line %d: TYPE %s does not follow its HELP (last HELP: %s)", line, m[1], helped)
			}
			current, currentType = m[1], m[2]
			seen[current] = 0
			lastLE, lastBucket, sawInf = math.Inf(-1), 0, false
			families = append(families, current)
		case strings.HasPrefix(text, "#"):
			t.Errorf("line %d: unexpected comment %q", line, text)
		default:
			m := sampleRe.FindStringSubmatch(text)
			if m == nil {
				t.Fatalf("line %d: malformed sample: %q", line, text)
			}
			name := m[1]
			value, _ := strconv.ParseFloat(m[4], 64)
			if currentType == "histogram" {
				// A histogram family's samples carry suffixed names.
				switch name {
				case current + "_sum":
					name = current
				case current + "_count":
					if !sawInf || value != lastBucket {
						t.Errorf("line %d: %s = %v, want the le=\"+Inf\" bucket (%v, seen %v)", line, m[1], value, lastBucket, sawInf)
					}
					name = current
				case current + "_bucket":
					le := leRe.FindStringSubmatch(m[2])
					if le == nil {
						t.Errorf("line %d: histogram bucket without le label: %q", line, text)
						break
					}
					bound, err := strconv.ParseFloat(le[1], 64)
					switch {
					case err != nil:
						t.Errorf("line %d: le %q is not a float: %v", line, le[1], err)
					case sawInf || bound <= lastLE:
						t.Errorf("line %d: le %q does not ascend past %v", line, le[1], lastLE)
					case value < lastBucket:
						t.Errorf("line %d: bucket le=%q count %v falls below the previous bucket's %v", line, le[1], value, lastBucket)
					}
					lastLE, lastBucket, sawInf = bound, value, math.IsInf(bound, 1)
					name = current
				}
			}
			if name != current {
				t.Errorf("line %d: sample %s outside its family block (current: %s)", line, m[1], current)
			}
			if m[4] == "+Inf" || m[4] == "-Inf" || m[4] == "NaN" {
				// Valid exposition values, but none of ours should produce them.
				t.Errorf("line %d: non-finite value %q", line, m[4])
			} else if _, err := strconv.ParseFloat(m[4], 64); err != nil {
				t.Errorf("line %d: value %q is not a float: %v", line, m[4], err)
			}
			seen[name]++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for fam, n := range seen {
		if n == 0 {
			t.Errorf("family %s has no samples", fam)
		}
	}
	return families, seen
}

func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// baseFamilies is the pinned family set a standalone daemon exposes; adding a
// family without updating this list (or emitting one twice) fails the
// exposition tests.
var baseFamilies = []string{
	"psimd_up", "psimd_queue_depth", "psimd_queue_capacity",
	"psimd_jobs_inflight", "psimd_sims_inflight", "psimd_sim_parallelism",
	"psimd_http_requests_total", "psimd_jobs_total",
	"psimd_cache_hits_total", "psimd_cache_shared_total",
	"psimd_cache_misses_total", "psimd_cache_hit_ratio",
	"psimd_sims_executed_total",
	"psimd_pf_issued_total", "psimd_pf_cross4k_total", "psimd_pf_cross4k_rate",
	"psimd_live_sims", "psimd_live_ipc", "psimd_live_cross4k_rate",
	"psimd_live_hit_ratio",
	"psimd_uptime_seconds", "psimd_sims_per_second",
	"psimd_queue_wait_seconds",
	"psimd_job_latency_seconds",
}

// TestMetricsExposition scrapes a standalone daemon's /metrics and asserts
// the whole body is well-formed, with exactly the pinned family set.
func TestMetricsExposition(t *testing.T) {
	_, hs, c := startServer(t, Config{Workers: 1}, fixedSim(telemetryFixture()))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := c.Submit(ctx, testRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Follow(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, hs.URL)
	families, seen := validateExposition(t, body)

	if len(families) != len(baseFamilies) {
		t.Errorf("exposed %d families, want %d", len(families), len(baseFamilies))
	}
	for _, fam := range baseFamilies {
		if _, ok := seen[fam]; !ok {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if got := seen["psimd_jobs_total"]; got != 5 {
		t.Errorf("psimd_jobs_total has %d samples, want 5 (one per status)", got)
	}
	if got := seen["psimd_live_hit_ratio"]; got != 3 {
		t.Errorf("psimd_live_hit_ratio has %d samples, want 3 (one per level)", got)
	}
	// 13 bounded buckets + the +Inf bucket + _sum + _count, and the finished
	// job must have been observed.
	if got := seen["psimd_queue_wait_seconds"]; got != 16 {
		t.Errorf("queue wait histogram has %d samples, want 16", got)
	}
	if !strings.Contains(body, "psimd_queue_wait_seconds_count 1") {
		t.Errorf("/metrics missing queue wait observation for the finished job")
	}

	// The stub results flow into the completed-sim prefetch counters.
	for _, wantLine := range []string{
		"psimd_pf_issued_total 100",
		"psimd_pf_cross4k_total 20",
		"psimd_pf_cross4k_rate 0.2000",
	} {
		if !strings.Contains(body, wantLine) {
			t.Errorf("/metrics missing %q", wantLine)
		}
	}
}

// TestMetricsExpositionClustered: a cluster-mode daemon appends the
// psimd_cluster_* families — still one well-formed exposition — including a
// proxy latency histogram populated by the proxied request this test sends
// through a non-owning node.
func TestMetricsExpositionClustered(t *testing.T) {
	nodes := startCluster(t, 2, fixedSim(telemetryFixture()), nil)
	req := testRequest(1)
	_, owner := keyAndOwner(t, nodes, req)
	other := 1 - owner
	runOne(t, nodes[other].c, req) // cold on a non-owner: proxied to the owner

	body := scrapeMetrics(t, nodes[other].hs.URL)
	families, seen := validateExposition(t, body)

	clusterFamilies := []string{
		"psimd_cluster_peers", "psimd_cluster_ring_nodes",
		"psimd_cluster_remote_hits_total", "psimd_cluster_proxied_total",
		"psimd_cluster_failovers_total", "psimd_cluster_entries_served_total",
		"psimd_cluster_proxy_latency_seconds",
	}
	if want := len(baseFamilies) + len(clusterFamilies); len(families) != want {
		t.Errorf("exposed %d families, want %d", len(families), want)
	}
	for _, fam := range clusterFamilies {
		if _, ok := seen[fam]; !ok {
			t.Errorf("family %s missing from clustered /metrics", fam)
		}
	}
	if got := seen["psimd_cluster_peers"]; got != 2 {
		t.Errorf("psimd_cluster_peers has %d samples, want 2 (alive/dead)", got)
	}
	// 13 bounded buckets + the +Inf bucket + _sum + _count.
	if got := seen["psimd_cluster_proxy_latency_seconds"]; got != 16 {
		t.Errorf("proxy latency histogram has %d samples, want 16", got)
	}
	for _, wantLine := range []string{
		"psimd_cluster_proxied_total 1",
		"psimd_cluster_ring_nodes 2",
		`psimd_cluster_peers{state="alive"} 1`,
		// A cold proxied request round-trips twice: the cache fetch that
		// misses, then the proxied execution.
		"psimd_cluster_proxy_latency_seconds_count 2",
		`psimd_cluster_proxy_latency_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, wantLine) {
			t.Errorf("clustered /metrics missing %q", wantLine)
		}
	}
}

// TestJobTelemetrySnapshot: completed simulations fold into the job's
// telemetry aggregate, which both the job view and SSE events carry.
func TestJobTelemetrySnapshot(t *testing.T) {
	_, _, c := startServer(t, Config{Workers: 1}, fixedSim(telemetryFixture()))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	v, err := c.Submit(ctx, testRequest(2))
	if err != nil {
		t.Fatal(err)
	}
	var progressed []*JobTelemetry
	final, err := c.Follow(ctx, v.ID, func(e Event) {
		if e.Type == "progress" {
			progressed = append(progressed, e.Telemetry)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("job status = %s, want done", final.Status)
	}
	tel := final.Telemetry
	if tel == nil {
		t.Fatal("done view has no telemetry snapshot")
	}
	checks := []struct {
		name      string
		got, want float64
	}{
		{"IPC", tel.IPC, 0.5},
		{"L1DHitRatio", tel.L1DHitRatio, 0.9},
		{"L2HitRatio", tel.L2HitRatio, 0.6},
		{"LLCHitRatio", tel.LLCHitRatio, 0.75},
		{"L2MPKI", tel.L2MPKI, 40},
		{"L2Accuracy", tel.L2Accuracy, 0.5},
		{"L2Coverage", tel.L2Coverage, 16.0 / (16 + 40)},
		{"CrossPageRate", tel.CrossPageRate, 0.2},
	}
	for _, ck := range checks {
		if diff := ck.got - ck.want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("%s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
	if tel.Instructions != 2000 || tel.Cycles != 4000 {
		t.Errorf("aggregate instr/cycles = %d/%d, want 2000/4000", tel.Instructions, tel.Cycles)
	}
	if tel.PrefIssued != 100 || tel.PrefCross4K != 20 {
		t.Errorf("aggregate prefetches = %d/%d, want 100/20", tel.PrefIssued, tel.PrefCross4K)
	}
	if len(progressed) != 2 {
		t.Fatalf("saw %d progress events, want 2", len(progressed))
	}
	if progressed[0] == nil || progressed[0].Instructions != 1000 {
		t.Errorf("first progress snapshot = %+v, want 1000 instructions", progressed[0])
	}
	if progressed[1] == nil || progressed[1].Instructions != 2000 {
		t.Errorf("second progress snapshot = %+v, want 2000 instructions", progressed[1])
	}
}
