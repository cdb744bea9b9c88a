package main

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/dtrace"
	"repro/internal/tracecheck"
)

// TestClusterPasses drives a shrunken, traced cluster-short instance through
// a cold and a warm pass from several client goroutines (run it with -race):
// every unit executes exactly once cluster-wide, the warm pass is all cache
// hits, both passes return identical results, and the stitched spans make a
// loadable Chrome trace with no span dropped.
func TestClusterPasses(t *testing.T) {
	inst, err := setupCluster(harness{seed: 3, nproc: 3, dir: t.TempDir(), flight: true})
	if err != nil {
		t.Fatal(err)
	}
	c := inst.(*clusterInst)
	defer c.close()
	c.jobs = c.jobs[:5]
	c.opt.Warmup, c.opt.Instructions = 1_000, 4_000

	rec := dtrace.NewRecorder("perfbench", benchCap)
	ctx := dtrace.NewContext(context.Background(), rec, dtrace.SpanContext{})
	cold, err := c.pass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := c.pass(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cold.failed != 0 || warm.failed != 0 || cold.units != 20 || len(cold.lat) != 5 {
		t.Fatalf("cold %d/%d failed, warm %d failed, %d latencies", cold.failed, cold.units, warm.failed, len(cold.lat))
	}
	if !bytes.Equal(cold.out, warm.out) {
		t.Error("warm pass returned different results")
	}
	if got, want := int(c.execs()), c.uniqueKeys(); got != want || cold.execs != uint64(want) || warm.execs != 0 {
		t.Errorf("executions: %d total (cold %d, warm %d) for %d keys", got, cold.execs, warm.execs, want)
	}
	if hitRatio(warm) != 1 {
		t.Errorf("warm hit ratio %g", hitRatio(warm))
	}
	if c.stats().RemoteHits == 0 {
		t.Error("warm pass made no cross-node fills")
	}

	nodeSpans, dropped, err := c.flightSpans(ctx)
	if err != nil {
		t.Fatal(err)
	}
	spans := dtrace.Stitch(append([][]dtrace.SpanData{rec.Snapshot(dtrace.Filter{})}, nodeSpans...)...)
	if dropped+rec.Dropped() != 0 {
		t.Errorf("%d spans dropped", dropped+rec.Dropped())
	}
	var buf bytes.Buffer
	if err := dtrace.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	tracecheck.ValidateChromeTrace(t, buf.Bytes())
	for _, st := range selfTimes(spans) {
		if st.SelfMS < 0 || st.SelfMS > st.TotMS+1e-9 {
			t.Errorf("span %s: self %g ms outside [0, total %g ms]", st.Name, st.SelfMS, st.TotMS)
		}
	}
	if len(spanDurations(spans)["job.run"]) == 0 {
		t.Error("no job.run spans from the nodes' flight recorders")
	}
}
