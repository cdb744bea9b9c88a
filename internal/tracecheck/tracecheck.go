// Package tracecheck validates Chrome trace_event JSON structurally — the
// invariants Perfetto and chrome://tracing loading depend on. The repo has
// one trace_event writer, telemetry.ChromeTrace; its two users (the
// prefetch lifecycle tracer and the dtrace span stitcher) are both checked
// here against one definition of "loadable".
package tracecheck

import (
	"encoding/json"
	"testing"
)

// ValidateChromeTrace unmarshals data as a trace_event JSON array and
// asserts the structural invariants:
//
//   - the document is a JSON array of objects
//   - every event has "ph" and "name"; every non-metadata event has "ts"
//   - non-metadata timestamps are non-decreasing in document order
//   - complete ("X") events have a positive "dur"
//   - instant ("i") events carry a scope "s"
//   - metadata ("M") events are process_name/thread_name with an args.name
//
// It returns the decoded events for exporter-specific assertions.
func ValidateChromeTrace(t testing.TB, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome trace is not a JSON array: %v", err)
	}
	lastTS := -1.0
	for i, e := range events {
		ph, ok := e["ph"].(string)
		if !ok {
			t.Fatalf("event %d missing ph: %v", i, e)
		}
		if _, ok := e["name"]; !ok {
			t.Fatalf("event %d missing name: %v", i, e)
		}
		if ph == "M" {
			name := e["name"]
			if name != "process_name" && name != "thread_name" {
				t.Errorf("event %d: unexpected metadata record %v", i, name)
			}
			args, _ := e["args"].(map[string]any)
			if args == nil || args["name"] == nil {
				t.Errorf("metadata event %d missing args.name: %v", i, e)
			}
			continue
		}
		ts, ok := e["ts"].(float64)
		if !ok {
			t.Fatalf("event %d missing ts: %v", i, e)
		}
		if ts < lastTS {
			t.Fatalf("timestamps not monotonic: %v after %v (event %d)", ts, lastTS, i)
		}
		lastTS = ts
		switch ph {
		case "X":
			dur, ok := e["dur"].(float64)
			if !ok || dur <= 0 {
				t.Errorf("complete event %d has non-positive dur: %v", i, e)
			}
		case "i":
			if e["s"] == nil {
				t.Errorf("instant event %d missing scope: %v", i, e)
			}
		default:
			t.Errorf("event %d has unexpected phase %v", i, ph)
		}
	}
	return events
}
