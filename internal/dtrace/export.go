package dtrace

import (
	"io"
	"sort"

	"repro/internal/telemetry"
)

// Stitch merges span sets fetched from several nodes (plus the client's own
// recorder) into one oldest-first slice, dropping duplicates — a span can
// arrive twice when a flight dump is fetched more than once. Identity is
// (trace, span, node): span IDs are random per process, so cross-node
// collisions are not a practical concern, but a node re-recording an ID is
// kept distinct from another node reporting it.
func Stitch(sets ...[]SpanData) []SpanData {
	type key struct{ trace, span, node string }
	seen := map[key]struct{}{}
	var out []SpanData
	for _, set := range sets {
		for _, d := range set {
			k := key{d.TraceID, d.SpanID, d.Node}
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartNS < out[j].StartNS })
	return out
}

// TraceIDs returns the distinct trace IDs present in spans, sorted.
func TraceIDs(spans []SpanData) []string {
	seen := map[string]struct{}{}
	for _, d := range spans {
		seen[d.TraceID] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TreeStats describes the shape of one trace's stitched span set — the
// connectivity check the cluster e2e harness asserts on: a cross-node batch
// must stitch into ONE tree (single root, no orphans) covering every node
// that touched it.
type TreeStats struct {
	// Spans is how many spans the trace has.
	Spans int
	// Roots counts spans with no parent reference.
	Roots int
	// Orphans counts spans whose parent ID is not among the spans — a break
	// in the tree (a hop whose parent was never exported, or propagation
	// losing the traceparent).
	Orphans int
	// Nodes is the sorted set of reporting nodes.
	Nodes []string
}

// Connected reports whether the spans form a single tree: exactly one root
// and no orphans.
func (s TreeStats) Connected() bool { return s.Roots == 1 && s.Orphans == 0 }

// TreeOf computes the tree shape of one trace within spans.
func TreeOf(trace string, spans []SpanData) TreeStats {
	ids := map[string]struct{}{}
	for _, d := range spans {
		if d.TraceID == trace {
			ids[d.SpanID] = struct{}{}
		}
	}
	var st TreeStats
	nodes := map[string]struct{}{}
	for _, d := range spans {
		if d.TraceID != trace {
			continue
		}
		st.Spans++
		if d.Node != "" {
			nodes[d.Node] = struct{}{}
		}
		switch {
		case d.ParentID == "":
			st.Roots++
		default:
			if _, ok := ids[d.ParentID]; !ok {
				st.Orphans++
			}
		}
	}
	st.Nodes = make([]string, 0, len(nodes))
	for n := range nodes {
		st.Nodes = append(st.Nodes, n)
	}
	sort.Strings(st.Nodes)
	return st
}

// WriteChromeTrace writes stitched spans in Chrome trace_event JSON (the
// array form chrome://tracing and Perfetto load directly). Each node becomes
// a process and each trace a thread within it ("trace <first 8 hex digits>"),
// so a multi-node batch renders as one timeline with a track per node.
// Timestamps are wall-clock microseconds; spans are complete ("X") slices
// carrying their span/parent IDs and annotation in args.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	var c telemetry.ChromeTrace
	for _, d := range spans {
		node := d.Node
		if node == "" {
			node = "(unattributed)"
		}
		args := map[string]any{
			"trace_id": d.TraceID,
			"span_id":  d.SpanID,
		}
		if d.ParentID != "" {
			args["parent_id"] = d.ParentID
		}
		if d.Ref != "" {
			args["ref"] = d.Ref
		}
		if d.Error {
			args["error"] = true
		}
		c.Slice(node, "trace "+shortID(d.TraceID), d.Name, d.StartNS/1000, (d.EndNS-d.StartNS)/1000, args)
	}
	return c.Encode(w)
}

func shortID(id string) string {
	if len(id) > 8 {
		return id[:8]
	}
	return id
}
