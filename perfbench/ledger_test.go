package main

import (
	"testing"

	"repro/internal/dtrace"
)

func TestSelfTimes(t *testing.T) {
	span := func(id, parent string, start, end int64) dtrace.SpanData {
		return dtrace.SpanData{TraceID: "t", SpanID: id, ParentID: parent, Name: id, StartNS: start, EndNS: end}
	}
	// Overlapping children count once, and a child running past its parent
	// counts only inside the parent's interval: 10–50 and 90–100 are covered.
	spans := []dtrace.SpanData{
		span("root", "", 0, 100e6),
		span("a", "root", 10e6, 30e6),
		span("b", "root", 20e6, 50e6),
		span("c", "root", 90e6, 120e6),
	}
	got := map[string]float64{}
	for _, st := range selfTimes(spans) {
		got[st.Name] = st.SelfMS
	}
	want := map[string]float64{"root": 50, "a": 20, "b": 30, "c": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %g ms, want %g", name, got[name], w)
		}
	}
}
