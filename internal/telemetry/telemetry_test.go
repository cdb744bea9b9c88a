package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tracecheck"
)

func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Buckets() != nil {
		t.Fatal("nil histogram must be empty")
	}
}

func TestDisabledHotPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(100, func() {
		tr.Record(Event{Kind: EvFill})
	}); n != 0 {
		t.Fatalf("disabled telemetry allocated %.1f objects per op", n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 4, 16)
	for _, v := range []uint64{0, 1, 2, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	b := h.Buckets()
	// ≤1: {0,1}; ≤4: {2,4}; ≤16: {5,16}; overflow: {17,1000}.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if b[i].Count != w {
			t.Errorf("bucket %d count = %d, want %d", i, b[i].Count, w)
		}
	}
	if !b[3].Overflow {
		t.Error("last bucket should be the overflow bucket")
	}
	if h.Count() != 8 || h.Sum() != 0+1+2+4+5+16+17+1000 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
}

// TestDurationHistogramPrometheus pins the exposition of the duration
// histogram: le labels in seconds exactly as psimd has always
// published them, cumulative buckets, and a +Inf bucket equal to _count.
func TestDurationHistogramPrometheus(t *testing.T) {
	h := NewDurationHistogram()
	for _, d := range []time.Duration{500 * time.Microsecond, time.Millisecond,
		30 * time.Millisecond, 2 * time.Second, time.Minute} {
		h.Observe(uint64(d))
	}
	var buf bytes.Buffer
	h.WritePrometheus(&buf, "x_seconds", "Test latency.")
	const want = `# HELP x_seconds Test latency.
# TYPE x_seconds histogram
x_seconds_bucket{le="0.001"} 2
x_seconds_bucket{le="0.0025"} 2
x_seconds_bucket{le="0.005"} 2
x_seconds_bucket{le="0.01"} 2
x_seconds_bucket{le="0.025"} 2
x_seconds_bucket{le="0.05"} 3
x_seconds_bucket{le="0.1"} 3
x_seconds_bucket{le="0.25"} 3
x_seconds_bucket{le="0.5"} 3
x_seconds_bucket{le="1"} 3
x_seconds_bucket{le="2.5"} 4
x_seconds_bucket{le="5"} 4
x_seconds_bucket{le="10"} 4
x_seconds_bucket{le="+Inf"} 5
x_seconds_sum 62.0315
x_seconds_count 5
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant\n%s", got, want)
	}
}

// TestHistogramConcurrentObserve runs Observe from several goroutines while
// a reader scrapes; under -race this checks the lock-free path, and every
// scrape's +Inf bucket must equal its _count.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewDurationHistogram()
	const workers, per = 4, 1000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(uint64(g*per+i) * uint64(time.Millisecond))
			}
		}(g)
	}
	infRe := regexp.MustCompile(`_bucket\{le="\+Inf"\} (\d+)\n`)
	countRe := regexp.MustCompile(`_count (\d+)\n`)
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		h.WritePrometheus(&buf, "x_seconds", "Test latency.")
		inf, count := infRe.FindStringSubmatch(buf.String()), countRe.FindStringSubmatch(buf.String())
		if inf == nil || count == nil || inf[1] != count[1] {
			t.Fatalf("+Inf bucket %v and _count %v disagree:\n%s", inf, count, buf.String())
		}
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

func TestCollectorDeltasAndDerived(t *testing.T) {
	var cum uint64
	c := NewCollector()
	c.AddCounter("misses", func() uint64 { return cum })
	c.AddGauge("level", func() float64 { return float64(cum) / 2 })
	c.AddDerived("mpki", func(get Lookup) float64 {
		return get("misses") / get("instructions") * 1000
	})

	cum = 10
	c.EndEpoch(1000, 2000)
	cum = 30
	c.EndEpoch(2000, 5000)

	eps := c.Epochs()
	if len(eps) != 2 {
		t.Fatalf("epochs = %d, want 2", len(eps))
	}
	if eps[0].Metrics["misses"] != 10 || eps[1].Metrics["misses"] != 20 {
		t.Errorf("counter deltas = %v, %v; want 10, 20",
			eps[0].Metrics["misses"], eps[1].Metrics["misses"])
	}
	if eps[1].Instructions != 1000 || eps[1].Cycles != 3000 {
		t.Errorf("epoch 1 instr/cycles = %d/%d", eps[1].Instructions, eps[1].Cycles)
	}
	if eps[1].Metrics["mpki"] != 20 {
		t.Errorf("derived mpki = %v, want 20", eps[1].Metrics["mpki"])
	}
	if eps[1].Metrics["level"] != 15 {
		t.Errorf("gauge = %v, want 15", eps[1].Metrics["level"])
	}
	if c.Latest()["misses"] != 20 {
		t.Errorf("Latest misses = %v", c.Latest()["misses"])
	}
}

// A zero-cycle (or zero-instruction) epoch turns naive rate probes into 0/0.
// The collector must record 0 instead of NaN/Inf: encoding/json rejects
// non-finite values, so a single poisoned sample would abort the whole JSONL
// export.
func TestCollectorZeroCycleEpochStaysFinite(t *testing.T) {
	c := NewCollector()
	c.AddDerived("ipc", func(get Lookup) float64 {
		return get("instructions") / get("cycles") // unguarded on purpose
	})
	c.AddDerived("inf", func(get Lookup) float64 {
		return (get("instructions") + 1) / get("cycles")
	})
	c.AddGauge("gnan", func() float64 { return math.NaN() })

	c.EndEpoch(1000, 2000)
	c.EndEpoch(1000, 2000) // back-to-back boundary: zero-delta epoch

	eps := c.Epochs()
	if len(eps) != 2 {
		t.Fatalf("epochs = %d, want 2", len(eps))
	}
	if eps[1].Cycles != 0 || eps[1].Instructions != 0 {
		t.Fatalf("epoch 1 deltas = %d/%d, want 0/0", eps[1].Instructions, eps[1].Cycles)
	}
	for _, name := range []string{"ipc", "inf", "gnan"} {
		if v := eps[1].Metrics[name]; v != 0 {
			t.Errorf("zero-cycle epoch %s = %v, want 0", name, v)
		}
	}
	if v := eps[0].Metrics["ipc"]; v != 0.5 {
		t.Errorf("normal epoch ipc = %v, want 0.5", v)
	}

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL after zero-cycle epoch: %v", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("JSONL lines = %d, want 2", lines)
	}
}

func TestCollectorJSONLRoundTrips(t *testing.T) {
	c := NewCollector()
	n := uint64(0)
	c.AddCounter("n", func() uint64 { return n })
	n = 5
	c.EndEpoch(100, 200)
	n = 9
	c.EndEpoch(200, 400)

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for i, line := range lines {
		var ep Epoch
		if err := json.Unmarshal([]byte(line), &ep); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if ep.Index != i {
			t.Errorf("line %d epoch index = %d", i, ep.Index)
		}
	}
}

func TestCollectorCSV(t *testing.T) {
	c := NewCollector()
	v := uint64(0)
	c.AddCounter("b", func() uint64 { return v })
	c.AddCounter("a", func() uint64 { return v * 2 })
	v = 3
	c.EndEpoch(10, 20)

	var buf bytes.Buffer
	if err := c.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "epoch,instructions,cycles,a,b" {
		t.Errorf("header = %q (metric names must be sorted)", lines[0])
	}
	if lines[1] != "0,10,20,6,3" {
		t.Errorf("row = %q", lines[1])
	}
}

// TestRingKeepsNewest covers the one ring behind the lifecycle tracer, the
// span flight recorder and psimd's latency window: it keeps the newest cap
// values oldest-first, counts what wrap-around overwrote, and a full ring's
// Add (and so a full tracer's Record) allocates nothing.
func TestRingKeepsNewest(t *testing.T) {
	r := NewRing[int64](4)
	if got := r.Copy(); len(got) != 0 || r.Len() != 0 {
		t.Fatalf("empty ring holds %v", got)
	}
	for i := 0; i < 3; i++ {
		r.Add(int64(i))
	}
	if got := r.Copy(); len(got) != 3 || got[0] != 0 || got[2] != 2 || r.Dropped() != 0 {
		t.Fatalf("partly filled ring = %v (dropped %d), want [0 1 2]", got, r.Dropped())
	}
	for i := 3; i < 10; i++ {
		r.Add(int64(i))
	}
	got := r.Copy()
	if len(got) != 4 || r.Len() != 4 {
		t.Fatalf("retained %d (Len %d), want 4", len(got), r.Len())
	}
	for i, v := range got {
		if v != int64(6+i) {
			t.Errorf("value %d = %d, want %d (oldest-first)", i, v, 6+i)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d, want 10/6", r.Total(), r.Dropped())
	}

	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: EvFill, Level: "L2", PageSize: "2MB", At: int64(i)})
	}
	for _, row := range []struct {
		name string
		op   func()
	}{
		{"full ring Add", func() { r.Add(1) }},
		{"full tracer Record", func() { tr.Record(Event{Kind: EvUse, Level: "LLC", At: 11}) }},
	} {
		if n := testing.AllocsPerRun(100, row.op); n != 0 {
			t.Errorf("%s allocated %.1f objects per op", row.name, n)
		}
	}
}

// TestTracerRingKeepsNewest: the lifecycle tracer keeps its newest cap
// events oldest-first and counts the rest as dropped.
func TestTracerRingKeepsNewest(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: EvFill, At: int64(i)})
	}
	ev := tr.Events()
	if len(ev) != 4 || tr.Len() != 4 {
		t.Fatalf("retained %d (Len %d), want 4", len(ev), tr.Len())
	}
	for i, e := range ev {
		if e.At != int64(6+i) {
			t.Errorf("event %d at %d, want %d (oldest-first)", i, e.At, 6+i)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Errorf("total/dropped = %d/%d", tr.Total(), tr.Dropped())
	}
}

func TestTracerJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Event{Kind: EvFill, Level: "L2", Block: 0x1000, Issue: 5, At: 90,
		PageSize: "2MB", CrossedPage: true, Core: 0})
	tr.Record(Event{Kind: EvUse, Level: "L2", Block: 0x1000, At: 120, Late: true})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["kind"] != "fill" || first["crossed_4k"] != true || first["page_size"] != "2MB" {
		t.Errorf("fill event = %v", first)
	}
	var second map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["kind"] != "use" || second["late"] != true {
		t.Errorf("use event = %v", second)
	}
}

// TestChromeTraceStructure pins the lifecycle export's shape: a JSON array
// of metadata rows naming one process per core and one integer-tid thread
// per cache level, then the events with non-decreasing timestamps; fills
// are slices (a zero-cycle fill still gets a positive duration) and the
// rest are instants.
func TestChromeTraceStructure(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Event{Kind: EvFill, Level: "L2", Block: 0x40, Issue: 100, At: 250})
	tr.Record(Event{Kind: EvUse, Level: "L2", Block: 0x40, At: 400})
	tr.Record(Event{Kind: EvFill, Level: "LLC", Block: 0x80, Issue: 50, At: 300})
	tr.Record(Event{Kind: EvEvict, Level: "L2", Block: 0xc0, At: 120})
	tr.Record(Event{Kind: EvFill, Level: "L2", Block: 0x100, Issue: 500, At: 500, Core: 1})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	// Structural validation is shared with the dtrace exporter: one
	// definition of Perfetto-loadable across the repo.
	events := tracecheck.ValidateChromeTrace(t, buf.Bytes())
	var meta []string
	phases := map[string]int{}
	for _, e := range events {
		if _, ok := e["tid"].(float64); !ok {
			t.Errorf("tid %v is not an integer", e["tid"])
		}
		if e["ph"] == "M" {
			meta = append(meta, e["name"].(string)+" "+e["args"].(map[string]any)["name"].(string))
			continue
		}
		phases[e["ph"].(string)]++
	}
	wantMeta := []string{"process_name core 0", "thread_name L2", "thread_name LLC",
		"process_name core 1", "thread_name L2"}
	if strings.Join(meta, ",") != strings.Join(wantMeta, ",") {
		t.Errorf("metadata rows = %q, want %q", meta, wantMeta)
	}
	if phases["X"] != 3 || phases["i"] != 2 {
		t.Errorf("phases = %v, want 3 slices and 2 instants", phases)
	}
}
