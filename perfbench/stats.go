package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLevels are the percentiles a summary may report as its tail, highest
// first. A level is usable only when at least minBeyond samples lie above it.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailLevel returns the highest percentile in tailLevels that has at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailLevel(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			return p
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (numpy's default). xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples above v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// summary is a timing distribution as the benchmark reports it: the median,
// the highest percentile with at least minBeyond samples beyond it, and the
// sample count.
type summary struct {
	N      int
	Median float64
	Tail   float64 // percentile level of TailValue; 0 when N is too small
	TailV  float64
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(xs)
	if s.Tail = tailLevel(len(xs)); s.Tail > 0 {
		s.TailV = quantile(xs, s.Tail)
	}
	return s
}

func (s summary) String() string {
	if s.Tail == 0 {
		return fmt.Sprintf("median %.4g (n=%d)", s.Median, s.N)
	}
	return fmt.Sprintf("median %.4g, p%g %.4g (n=%d)", s.Median, s.Tail*100, s.TailV, s.N)
}

// meanSeconds is the wall time of one warm replay: the replays of a round are
// averaged, so a round's warm_s sample is their total over their count.
func meanSeconds(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total.Seconds() / float64(len(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
