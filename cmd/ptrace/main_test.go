package main

import (
	"bytes"
	"testing"
)

// TestPrintFootprint pins the -info footprint rows: singleton buckets print
// as "n:count", ranges as "lo-hi:count", empty buckets are skipped (a range
// starts after the last non-empty bound), and pages past the last bound land
// in the ">bound" overflow bucket.
func TestPrintFootprint(t *testing.T) {
	f := newFootprint(12)
	touch := func(page, times uint64) {
		for i := uint64(0); i < times; i++ {
			f.touch(page << 12)
		}
	}
	touch(1, 1)
	touch(2, 1)
	touch(3, 3)
	touch(4, 100)
	touch(5, 20000)

	var buf bytes.Buffer
	printFootprint(&buf, "4KB", 4<<10, f)
	const want = "4KB pages:     5 touched (0.0 MiB footprint, 4021.0 accesses/page)\n" +
		"  accesses/page: 1:2 2-4:1 65-256:1 >16384:1\n"
	if got := buf.String(); got != want {
		t.Errorf("footprint rows:\n%q\nwant\n%q", got, want)
	}
}
