package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// latWindow is how many recent job latencies back the p50/p99 estimates.
const latWindow = 1024

// metrics holds the daemon's counters. Gauges derived from live structures
// (queue depth, in-flight sims) are read at scrape time.
type metrics struct {
	start time.Time

	httpRequests  atomic.Uint64
	jobsSubmitted atomic.Uint64
	jobsRejected  atomic.Uint64
	jobsDone      atomic.Uint64
	jobsFailed    atomic.Uint64
	jobsCanceled  atomic.Uint64
	jobsRunning   atomic.Int64

	cacheHits    atomic.Uint64 // sims served without executing (disk or shared flight)
	simsExecuted atomic.Uint64 // sims that actually ran

	pfIssued  atomic.Uint64 // L2-engine prefetches issued across completed sims
	pfCross4K atomic.Uint64 // ...of which crossed a 4KB page boundary

	latMu      sync.Mutex
	jobLatency telemetry.Ring[float64] // recent job latencies, seconds

	// queueWait distributes admission-to-pickup delay: how long jobs sit in
	// the admission queue before a worker starts them. Under load this is
	// the histogram that says whether the queue bound or the worker pool is
	// the bottleneck.
	queueWait *telemetry.Histogram
}

func newMetrics() metrics {
	return metrics{
		start:      time.Now(),
		jobLatency: telemetry.NewRing[float64](latWindow),
		queueWait:  telemetry.NewDurationHistogram(),
	}
}

// observeLatency records one finished job's wall-clock duration.
func (m *metrics) observeLatency(d time.Duration) {
	m.latMu.Lock()
	m.jobLatency.Add(d.Seconds())
	m.latMu.Unlock()
}

// quantiles estimates job-latency quantiles over the recent window.
func (m *metrics) quantiles(qs ...float64) []float64 {
	m.latMu.Lock()
	window := m.jobLatency.Copy()
	m.latMu.Unlock()
	n := len(window)
	out := make([]float64, len(qs))
	if n == 0 {
		return out
	}
	sort.Float64s(window)
	for i, q := range qs {
		idx := int(q * float64(n-1))
		out[i] = window[idx]
	}
	return out
}

// writeMetrics renders the Prometheus text exposition format.
func (s *Server) writeMetrics(w io.Writer) {
	m := &s.m
	gauge := func(name, help string, v interface{}) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	up := 1
	if s.Draining() {
		up = 0
	}
	gauge("psimd_up", "1 while accepting jobs, 0 while draining.", up)
	gauge("psimd_queue_depth", "Jobs admitted but not yet picked up by a worker.", len(s.queue))
	gauge("psimd_queue_capacity", "Admission queue bound.", cap(s.queue))
	gauge("psimd_jobs_inflight", "Jobs currently executing.", m.jobsRunning.Load())
	gauge("psimd_sims_inflight", "Simulations currently executing.", len(s.simSem))
	gauge("psimd_sim_parallelism", "Simulation worker-pool bound.", cap(s.simSem))

	counter("psimd_http_requests_total", "API requests served.", m.httpRequests.Load())
	fmt.Fprintf(w, "# HELP psimd_jobs_total Jobs by terminal disposition.\n# TYPE psimd_jobs_total counter\n")
	fmt.Fprintf(w, "psimd_jobs_total{status=\"submitted\"} %d\n", m.jobsSubmitted.Load())
	fmt.Fprintf(w, "psimd_jobs_total{status=\"rejected\"} %d\n", m.jobsRejected.Load())
	fmt.Fprintf(w, "psimd_jobs_total{status=\"done\"} %d\n", m.jobsDone.Load())
	fmt.Fprintf(w, "psimd_jobs_total{status=\"failed\"} %d\n", m.jobsFailed.Load())
	fmt.Fprintf(w, "psimd_jobs_total{status=\"canceled\"} %d\n", m.jobsCanceled.Load())

	st := s.Stats()
	counter("psimd_cache_hits_total", "Simulations served from the disk cache.", st.Hits)
	counter("psimd_cache_shared_total", "Simulations served by joining an in-flight computation.", st.Shared)
	counter("psimd_cache_misses_total", "Simulations computed (cache misses).", st.Misses)
	gauge("psimd_cache_hit_ratio", "Hits plus shared over all lookups since start.", fmt.Sprintf("%.4f", st.HitRate()))
	counter("psimd_sims_executed_total", "Simulations actually executed by this daemon.", m.simsExecuted.Load())

	issued, crossed := m.pfIssued.Load(), m.pfCross4K.Load()
	counter("psimd_pf_issued_total", "L2-engine prefetches issued across completed simulations.", issued)
	counter("psimd_pf_cross4k_total", "Issued prefetches that crossed a 4KB page boundary.", crossed)
	crossRate := 0.0
	if issued > 0 {
		crossRate = float64(crossed) / float64(issued)
	}
	gauge("psimd_pf_cross4k_rate", "Cross-page share of issued prefetches across completed simulations.", fmt.Sprintf("%.4f", crossRate))

	liveN, live := s.liveTelemetry()
	gauge("psimd_live_sims", "Executing simulations with at least one closed telemetry epoch.", liveN)
	gauge("psimd_live_ipc", "Mean latest-epoch IPC across executing simulations.", fmt.Sprintf("%.4f", live["ipc"]))
	gauge("psimd_live_cross4k_rate", "Mean latest-epoch cross-page prefetch rate across executing simulations.", fmt.Sprintf("%.4f", live["pf_cross4k_rate"]))
	fmt.Fprintf(w, "# HELP psimd_live_hit_ratio Mean latest-epoch demand hit ratio across executing simulations.\n# TYPE psimd_live_hit_ratio gauge\n")
	for _, lvl := range []string{"l1d", "l2", "llc"} {
		fmt.Fprintf(w, "psimd_live_hit_ratio{level=%q} %.4f\n", lvl, live[lvl+"_hit_ratio"])
	}

	uptime := time.Since(m.start).Seconds()
	gauge("psimd_uptime_seconds", "Seconds since daemon start.", fmt.Sprintf("%.1f", uptime))
	rate := 0.0
	if uptime > 0 {
		rate = float64(m.simsExecuted.Load()) / uptime
	}
	gauge("psimd_sims_per_second", "Executed simulations per second of uptime.", fmt.Sprintf("%.3f", rate))

	m.queueWait.WritePrometheus(w, "psimd_queue_wait_seconds",
		"Seconds between job admission and worker pickup.")

	q := m.quantiles(0.5, 0.99)
	fmt.Fprintf(w, "# HELP psimd_job_latency_seconds Recent job wall-clock latency quantiles.\n# TYPE psimd_job_latency_seconds gauge\n")
	fmt.Fprintf(w, "psimd_job_latency_seconds{quantile=\"0.5\"} %.4f\n", q[0])
	fmt.Fprintf(w, "psimd_job_latency_seconds{quantile=\"0.99\"} %.4f\n", q[1])

	if s.cluster != nil {
		s.cluster.WriteMetrics(w)
	}
}
