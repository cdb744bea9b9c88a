package telemetry

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one trace_event record; see the Chrome Trace Event Format.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrack struct{ process, thread string }

// ChromeTrace builds a Chrome trace_event document, the JSON array form
// chrome://tracing and Perfetto load directly. Every event sits on a named
// track: each process name gets a pid and each (process, thread) pair a tid,
// both integers numbered from 1 in first-use order and named by
// process_name / thread_name metadata rows. The zero value is empty and
// ready to use.
type ChromeTrace struct {
	pids   map[string]int
	tids   map[chromeTrack]int
	meta   []chromeEvent
	events []chromeEvent
}

// track returns the pid and tid of thread within process, adding their
// metadata rows on first use.
func (c *ChromeTrace) track(process, thread string) (pid, tid int) {
	if c.pids == nil {
		c.pids, c.tids = map[string]int{}, map[chromeTrack]int{}
	}
	pid, ok := c.pids[process]
	if !ok {
		pid = len(c.pids) + 1
		c.pids[process] = pid
		c.meta = append(c.meta, chromeEvent{Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": process}})
	}
	k := chromeTrack{process, thread}
	tid, ok = c.tids[k]
	if !ok {
		tid = len(c.tids) + 1
		c.tids[k] = tid
		c.meta = append(c.meta, chromeEvent{Name: "thread_name", Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": thread}})
	}
	return pid, tid
}

// Slice adds a complete ("X") event spanning [ts, ts+dur). A duration below
// 1 is raised to 1: Perfetto drops zero-width slices, and a marker must stay
// visible.
func (c *ChromeTrace) Slice(process, thread, name string, ts, dur int64, args map[string]any) {
	pid, tid := c.track(process, thread)
	c.events = append(c.events, chromeEvent{Name: name, Phase: "X", TS: ts, Dur: max(dur, 1),
		PID: pid, TID: tid, Args: args})
}

// Instant adds a thread-scoped instant ("i") event at ts.
func (c *ChromeTrace) Instant(process, thread, name string, ts int64, args map[string]any) {
	pid, tid := c.track(process, thread)
	c.events = append(c.events, chromeEvent{Name: name, Phase: "i", TS: ts, Scope: "t",
		PID: pid, TID: tid, Args: args})
}

// Encode writes the document: the metadata rows first, then the events
// sorted by timestamp (ties keep the order they were added in).
func (c *ChromeTrace) Encode(w io.Writer) error {
	sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].TS < c.events[j].TS })
	out := make([]chromeEvent, 0, len(c.meta)+len(c.events))
	out = append(append(out, c.meta...), c.events...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
