package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.Median != 50.5 || s.Tail != 0.9 {
		t.Fatalf("summary = %+v", s)
	}
	// p90 of 1..100 by linear interpolation: rank 89.1 → 90.1.
	if math.Abs(s.TailV-90.1) > 1e-9 {
		t.Errorf("p90 = %g, want 90.1", s.TailV)
	}
	if n := beyond(xs, s.TailV); n != minBeyond {
		t.Errorf("%d samples beyond the tail percentile, want %d", n, minBeyond)
	}
	if small := summarize([]float64{3, 1, 2}); small.Tail != 0 || small.Median != 2 {
		t.Errorf("small summary = %+v", small)
	}
}

func TestMeanSeconds(t *testing.T) {
	ds := []time.Duration{10 * time.Millisecond, 12 * time.Millisecond, 8 * time.Millisecond, 14 * time.Millisecond}
	if got := meanSeconds(ds); math.Abs(got-0.011) > 1e-12 {
		t.Errorf("meanSeconds = %g, want 0.011", got)
	}
	if !math.IsNaN(meanSeconds(nil)) {
		t.Error("meanSeconds of no replays is not NaN")
	}
}
