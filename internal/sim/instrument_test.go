package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracecheck"
)

func instrumentedRun(t *testing.T, ins *Instrumentation, spec PrefSpec, name string, opt RunOpt) Result {
	t.Helper()
	w := mustWorkload(t, name)
	r, err := RunContext(WithInstrumentation(context.Background(), ins), DefaultConfig(), spec, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestInstrumentedMatchesPlain pins the central telemetry contract: attaching
// a collector and tracer — with an epoch length deliberately misaligned with
// the Frac2M sampling chunks — must not change a single bit of the result.
// This is what lets telemetry ride along without invalidating cached results.
func TestInstrumentedMatchesPlain(t *testing.T) {
	spec := PrefSpec{Base: "spp", Variant: core.PSASD}
	plain := mustRun(t, spec, "libquantum")

	ins := &Instrumentation{
		Collector:         telemetry.NewCollector(),
		Tracer:            telemetry.NewTracer(0),
		EpochInstructions: 7777, // misaligned with the 100K sample chunks
	}
	instr := instrumentedRun(t, ins, spec, "libquantum", testOpt)
	if !reflect.DeepEqual(plain, instr) {
		t.Errorf("instrumented run diverged from plain run:\nplain %+v\ninstr %+v", plain, instr)
	}
	if len(ins.Collector.Epochs()) == 0 {
		t.Fatal("collector recorded no epochs")
	}
	if ins.Tracer.Total() == 0 {
		t.Fatal("tracer recorded no lifecycle events")
	}
}

// telemetrySchema is the golden probe set of a single-core instrumented run
// with a prefetch engine attached. Extending the probe set is fine — update
// the list — but renaming or dropping a metric breaks downstream consumers
// (plots, psimd dashboards) and must be deliberate.
var telemetrySchema = []string{
	"dram_busy_banks", "dram_reads", "dram_row_hit_rate", "dram_row_hits",
	"dram_row_misses", "dram_writes", "frac_2m", "ipc",
	"l1d_accuracy", "l1d_coverage", "l1d_demand_hits", "l1d_demand_misses",
	"l1d_hit_ratio", "l1d_mpki", "l1d_mshr_busy", "l1d_pf_dropped",
	"l1d_pf_issued", "l1d_pf_late", "l1d_pf_unused", "l1d_pf_useful",
	"l2_accuracy", "l2_coverage", "l2_demand_hits", "l2_demand_misses",
	"l2_hit_ratio", "l2_mpki", "l2_mshr_busy", "l2_pf_dropped",
	"l2_pf_issued", "l2_pf_late", "l2_pf_unused", "l2_pf_useful",
	"llc_accuracy", "llc_coverage", "llc_demand_hits", "llc_demand_misses",
	"llc_hit_ratio", "llc_mpki", "llc_mshr_busy", "llc_pf_dropped",
	"llc_pf_issued", "llc_pf_late", "llc_pf_unused", "llc_pf_useful",
	"pf_cross4k", "pf_cross4k_rate", "pf_discarded_boundary", "pf_issued",
	"pf_proposed", "pf_queue_dropped", "ppm_2m", "ppm_4k",
	"psasd_psel", "psasd_winner",
	"rob_occupancy",
	"tlb_hits_2m", "tlb_hits_4k",
	"tlb_l1_hits", "tlb_l1_misses", "tlb_l2_hits", "tlb_l2_misses",
	"walks", "walks_2m", "walks_4k",
}

// TestTelemetrySchemaGolden pins the emitted schema: every epoch carries
// exactly the golden metric set, and the JSONL export parses back with the
// headline series (IPC, L2 MPKI, accuracy/coverage, cross-4KB count, PSA-SD
// winner) present and sane.
func TestTelemetrySchemaGolden(t *testing.T) {
	ins := &Instrumentation{Collector: telemetry.NewCollector(), EpochInstructions: 100_000}
	instrumentedRun(t, ins, PrefSpec{Base: "spp", Variant: core.PSASD}, "libquantum", testOpt)

	epochs := ins.Collector.Epochs()
	if len(epochs) != 4 {
		t.Fatalf("epochs = %d, want 4 (400K instructions / 100K epoch)", len(epochs))
	}
	var total uint64
	for _, ep := range epochs {
		total += ep.Instructions
		var names []string
		for n := range ep.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		if !reflect.DeepEqual(names, telemetrySchema) {
			t.Fatalf("epoch %d schema drifted:\ngot  %v\nwant %v", ep.Index, names, telemetrySchema)
		}
	}
	if total != testOpt.Instructions {
		t.Errorf("epoch instructions sum = %d, want %d", total, testOpt.Instructions)
	}

	var buf bytes.Buffer
	if err := ins.Collector.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for i := 0; i < 4; i++ {
		var ep telemetry.Epoch
		if err := dec.Decode(&ep); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
		if ep.Metrics["ipc"] <= 0 || ep.Metrics["ipc"] > 4 {
			t.Errorf("epoch %d ipc = %v", i, ep.Metrics["ipc"])
		}
		if acc := ep.Metrics["l2_accuracy"]; acc < 0 || acc > 1 {
			t.Errorf("epoch %d l2_accuracy = %v", i, acc)
		}
		if cov := ep.Metrics["l2_coverage"]; cov < 0 || cov > 1 {
			t.Errorf("epoch %d l2_coverage = %v", i, cov)
		}
		if w := ep.Metrics["psasd_winner"]; w != 0 && w != 1 {
			t.Errorf("epoch %d psasd_winner = %v", i, w)
		}
	}
	// libquantum is 2MB-heavy under PSA-SD: page-crossing prefetches must
	// actually appear in the series.
	var crossed float64
	for _, ep := range epochs {
		crossed += ep.Metrics["pf_cross4k"]
	}
	if crossed == 0 {
		t.Error("no cross-4KB prefetches recorded on a 2MB-heavy workload")
	}
}

// TestTracerAttribution checks the lifecycle stream carries the page-size and
// boundary-crossing attribution end to end through a real run.
func TestTracerAttribution(t *testing.T) {
	ins := &Instrumentation{Tracer: telemetry.NewTracer(0)}
	instrumentedRun(t, ins, PrefSpec{Base: "spp", Variant: core.PSA}, "libquantum", testOpt)

	events := ins.Tracer.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	kinds := map[telemetry.EventKind]int{}
	var crossed, sized2m int
	for _, e := range events {
		kinds[e.Kind]++
		if e.CrossedPage {
			crossed++
		}
		if e.PageSize == "2MB" {
			sized2m++
		}
		if e.Kind == telemetry.EvFill && e.At < e.Issue {
			t.Fatalf("fill completes before issue: %+v", e)
		}
	}
	if kinds[telemetry.EvFill] == 0 || kinds[telemetry.EvUse] == 0 {
		t.Errorf("event kinds = %v, want fills and uses", kinds)
	}
	if crossed == 0 {
		t.Error("no boundary-crossing events under PSA on a 2MB-heavy workload")
	}
	if sized2m == 0 {
		t.Error("no 2MB-attributed events on a 2MB-heavy workload")
	}

	// The same ring must render as a loadable Chrome trace: one process per
	// core, one thread per cache level, and every retained event on it.
	var buf bytes.Buffer
	if err := ins.Tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var rendered int
	threads := map[string]bool{}
	for _, e := range tracecheck.ValidateChromeTrace(t, buf.Bytes()) {
		switch {
		case e["ph"] != "M":
			rendered++
		case e["name"] == "thread_name":
			threads[e["args"].(map[string]any)["name"].(string)] = true
		case e["args"].(map[string]any)["name"] != "core 0":
			t.Errorf("process row %v, want only core 0", e)
		}
	}
	if rendered != len(events) {
		t.Errorf("chrome trace has %d events, want the ring's %d", rendered, len(events))
	}
	levels := map[string]bool{}
	for _, e := range events {
		levels[e.Level] = true
	}
	if !reflect.DeepEqual(threads, levels) {
		t.Errorf("thread rows %v, want one per traced level %v", threads, levels)
	}
}

func TestInstrumentationContextCarrier(t *testing.T) {
	if got := InstrumentationFrom(context.Background()); got != nil {
		t.Errorf("empty context yielded %+v", got)
	}
	ins := &Instrumentation{}
	if got := InstrumentationFrom(WithInstrumentation(context.Background(), ins)); got != ins {
		t.Error("instrumentation did not round-trip through the context")
	}
	if ctx := context.Background(); WithInstrumentation(ctx, nil) != ctx {
		t.Error("nil instrumentation should not wrap the context")
	}
}

// BenchmarkTelemetryOverhead guards the cost of instrumentation: the enabled
// run (collector + tracer, default epoch) must stay within a few percent of
// the disabled run, and the disabled path must not allocate on the hot path.
// CI runs it with -benchtime 1x as a smoke guard; run locally with real
// benchtime to measure the overhead ratio.
func BenchmarkTelemetryOverhead(b *testing.B) {
	w, err := trace.ByName("libquantum")
	if err != nil {
		b.Fatal(err)
	}
	opt := RunOpt{Warmup: 20_000, Instructions: 200_000, Seed: 1, Samples: 1}
	spec := PrefSpec{Base: "spp", Variant: core.PSASD}

	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(DefaultConfig(), spec, w, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ins := &Instrumentation{
				Collector: telemetry.NewCollector(),
				Tracer:    telemetry.NewTracer(0),
			}
			ctx := WithInstrumentation(context.Background(), ins)
			if _, err := RunContext(ctx, DefaultConfig(), spec, w, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
