// Package telemetry is the repository's zero-dependency observability layer.
// Every observability primitive exists here once, so the simulator, the
// span tracer (internal/dtrace) and the daemon (internal/service,
// internal/cluster) share one implementation of each:
//
//   - Histogram: an atomic bucketed distribution that hot paths observe into
//     without a lock; readers snapshot it concurrently, and WritePrometheus
//     renders it as a Prometheus histogram family.
//   - Ring and Interner (ring.go): a preallocated, allocation-free ring
//     keeping the newest N pointer-free records, and the uint8 name table
//     that keeps those records pointer-free.
//   - ChromeTrace (chrome.go): the one Chrome trace_event writer.
//   - Collector (collector.go): an epoch-series sampler. Components register
//     probes once (cumulative counters, instantaneous gauges, or derived
//     ratios); the run loop calls EndEpoch at each epoch boundary and the
//     collector turns cumulative values into per-epoch deltas, building a
//     time series exportable as JSONL or CSV.
//   - Tracer (tracer.go): a Ring of prefetch lifecycle events
//     (issue→fill→first-use/evict) exportable as JSONL or Chrome
//     trace_event JSON.
//
// Everything is observational: probes read component state, they never
// mutate it, so an instrumented run retires the same instructions in the
// same cycles as an uninstrumented one. Histogram and Tracer tolerate nil
// receivers on their hot-path methods so call sites need no telemetry-off
// branches.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into explicit upper-bound buckets plus an
// overflow bucket. Bounds are inclusive upper edges and must be ascending.
// Observe is lock-free; readers may run concurrently with it.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // len(bounds)+1: last is the overflow bucket
	sum    atomic.Uint64
	unit   float64 // observed units per exposed unit in WritePrometheus
}

// NewHistogram creates a histogram with the given ascending inclusive
// upper-bound bucket edges.
func NewHistogram(bounds ...uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not ascending at %d", i))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1), unit: 1}
}

// NewDurationHistogram observes time.Duration values (nanoseconds) in
// buckets from 1ms to 10s — the plausible span of a job's queue wait on a
// loaded daemon, and of a cross-node cache fetch (sub-ms on localhost)
// through a proxied full simulation. WritePrometheus exposes it in seconds.
func NewDurationHistogram() *Histogram {
	const ms = 1_000_000
	h := NewHistogram(1*ms, 2.5*ms, 5*ms, 10*ms, 25*ms, 50*ms, 100*ms, 250*ms, 500*ms,
		1000*ms, 2500*ms, 5000*ms, 10000*ms)
	h.unit = 1e9
	return h
}

// Observe records one observation. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Bucket is one histogram bucket: observations ≤ UpperBound (the overflow
// bucket has UpperBound 0 and Overflow true).
type Bucket struct {
	UpperBound uint64
	Overflow   bool
	Count      uint64
}

// Buckets returns a snapshot of the bucket counts.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	out := make([]Bucket, 0, len(h.bounds)+1)
	for i, b := range h.bounds {
		out = append(out, Bucket{UpperBound: b, Count: h.counts[i].Load()})
	}
	out = append(out, Bucket{Overflow: true, Count: h.counts[len(h.bounds)].Load()})
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// WritePrometheus writes the histogram as a Prometheus text-exposition
// histogram family: cumulative _bucket{le=...} samples, _sum and _count.
// The +Inf bucket and _count come from one bucket snapshot, so they agree
// even while Observe runs concurrently.
func (h *Histogram) WritePrometheus(w io.Writer, name, help string) {
	buckets := h.Buckets()
	sum := h.Sum()
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum uint64
	for _, b := range buckets {
		cum += b.Count
		if !b.Overflow {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(b.UpperBound)/h.unit, cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(sum)/h.unit)
	fmt.Fprintf(w, "%s_count %d\n", name, cum)
}
