package dtrace

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"
)

// fill records n root spans named seq-<i> on distinct traces and returns the
// trace ID of the last one.
func fill(r *Recorder, n int) TraceID {
	var last TraceID
	for i := 0; i < n; i++ {
		sp := r.StartSpan(SpanContext{}, "seq-"+strconv.Itoa(i))
		last = sp.Context().Trace
		sp.End()
	}
	return last
}

// TestRingWraparound: a full recorder keeps its newest spans oldest-first
// and counts the overwritten ones as dropped.
func TestRingWraparound(t *testing.T) {
	r := NewRecorder("n", 8)
	fill(r, 20)
	if r.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", r.Dropped())
	}
	got := r.Snapshot(Filter{})
	if len(got) != 8 {
		t.Fatalf("snapshot holds %d spans, want capacity 8", len(got))
	}
	if total := r.Dropped() + uint64(len(got)); total != 20 {
		t.Fatalf("retained+dropped = %d, want all 20 recorded", total)
	}
	// Oldest-first: the survivors are seq-12..seq-19 in order.
	for i, d := range got {
		if want := "seq-" + strconv.Itoa(12+i); d.Name != want {
			t.Fatalf("snapshot[%d] = %q, want %q", i, d.Name, want)
		}
	}
}

func TestSnapshotFilters(t *testing.T) {
	r := NewRecorder("n", 64)
	keep := fill(r, 5)
	bad := r.StartSpan(SpanContext{Trace: keep, Span: NewSpanID(), Flags: 1}, "boom")
	bad.Fail(fmt.Errorf("kaput"))
	bad.End()

	if got := r.Snapshot(Filter{Trace: keep.String()}); len(got) != 2 {
		t.Fatalf("trace filter kept %d spans, want 2 (seq-4 + boom)", len(got))
	}
	errs := r.Snapshot(Filter{ErrorsOnly: true})
	if len(errs) != 1 || errs[0].Name != "boom" || errs[0].Ref != "kaput" {
		t.Fatalf("errors-only = %+v, want the single failed span", errs)
	}
	lim := r.Snapshot(Filter{Limit: 2})
	if len(lim) != 2 || lim[0].Name != "seq-4" || lim[1].Name != "boom" {
		t.Fatalf("limit filter must keep the newest spans, got %+v", lim)
	}
	if got := r.Snapshot(Filter{Trace: "not-a-trace"}); len(got) != 0 {
		t.Fatalf("unknown trace matched %d spans", len(got))
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder("node-x", 16)
	fill(r, 3)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, Filter{}); err != nil {
		t.Fatal(err)
	}
	if bytes.Count(buf.Bytes(), []byte("\n")) != 3 {
		t.Fatalf("JSONL output is not one line per span:\n%s", buf.String())
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := r.Snapshot(Filter{})
	if len(got) != len(want) {
		t.Fatalf("read %d spans, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("span %d: read %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestRefTruncation(t *testing.T) {
	r := NewRecorder("n", 4)
	sp := r.StartSpan(SpanContext{}, "op")
	long := string(bytes.Repeat([]byte("x"), 200))
	sp.Annotate(long)
	sp.End()
	got := r.Snapshot(Filter{})
	if len(got) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(got))
	}
	if len(got[0].Ref) > 48 || got[0].Ref != long[:len(got[0].Ref)] {
		t.Fatalf("ref %q must be a prefix of the annotation, at most 48 bytes", got[0].Ref)
	}
}

func TestNameTableOverflow(t *testing.T) {
	r := NewRecorder("n", 300)
	// Exhaust the 255-entry name table; overflow must degrade, not corrupt:
	// the first 255 names survive and every later one reads "?".
	for i := 0; i < 300; i++ {
		sp := r.StartSpan(SpanContext{}, "name-"+strconv.Itoa(i))
		sp.End()
	}
	for i, d := range r.Snapshot(Filter{}) {
		want := "name-" + strconv.Itoa(i)
		if i >= 255 {
			want = "?"
		}
		if d.Name != want {
			t.Fatalf("span %d named %q, want %q", i, d.Name, want)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder("n", 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := r.StartSpan(SpanContext{}, "g"+strconv.Itoa(g))
				sp.Annotate("iter")
				if i%7 == 0 {
					sp.Fail(fmt.Errorf("g%d", g))
				}
				sp.End()
				r.Snapshot(Filter{Limit: 10})
			}
		}(g)
	}
	wg.Wait()
	if r.Dropped() != 800-128 {
		t.Fatalf("Dropped = %d, want 672 of 800 spans", r.Dropped())
	}
	if got := r.Snapshot(Filter{}); len(got) != 128 {
		t.Fatalf("snapshot holds %d spans, want 128", len(got))
	}
}
