package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf writer for building fixture profiles.
type pb struct{ b []byte }

func (p *pb) varint(num int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(num int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(num)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(num int, vs ...uint64) *pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return p.bytes(num, inner)
}

// fixtureProfile is a CPU profile with eight functions and six samples:
//
//	cache.Access (leaf)                         30ms
//	sha256.block <- simcache.Key                20ms  (unmapped leaf: caller's layer)
//	runtime.mallocgc <- spp.Train               40ms  (allocation: runtime)
//	sort.Sort (nothing mapped)                  10ms  → other
//	syscall.Syscall6 <- os.Write <- simcache.Key  5ms  (a system call: caller's layer)
//	runtime.gcBgMarkWorker alone                 5ms  (GC worker: runtime)
//
// Location 3 carries an inlined frame pair (sha256.block inlined into
// simcache.Key) to exercise multi-line locations.
func fixtureProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/cache.(*Cache).Access",
		"crypto/sha256.block",
		"repro/internal/simcache.Key",
		"runtime.mallocgc",
		"repro/internal/prefetch/spp.(*SPP).Train",
		"sort.Sort",
		"internal/runtime/syscall.Syscall6",
		"os.(*File).Write",
		"runtime.gcBgMarkWorker",
	}
	var p pb
	p.bytes(1, (&pb{}).varint(1, 1).varint(2, 2).b) // samples/count
	p.bytes(1, (&pb{}).varint(1, 3).varint(2, 4).b) // cpu/nanoseconds
	sample := func(ns uint64, locs ...uint64) {
		p.bytes(2, (&pb{}).packed(1, locs...).packed(2, ns/10e6, ns).b)
	}
	sample(30e6, 1)
	sample(20e6, 3)
	sample(40e6, 4, 5)
	sample(10e6, 6)
	sample(5e6, 7, 8, 3)
	sample(5e6, 9)
	line := func(fn uint64) []byte { return (&pb{}).varint(1, fn).varint(2, 7).b }
	p.bytes(4, (&pb{}).varint(1, 1).bytes(4, line(1)).b)
	p.bytes(4, (&pb{}).varint(1, 3).bytes(4, line(2)).bytes(4, line(3)).b)
	p.bytes(4, (&pb{}).varint(1, 4).bytes(4, line(4)).b)
	p.bytes(4, (&pb{}).varint(1, 5).bytes(4, line(5)).b)
	p.bytes(4, (&pb{}).varint(1, 6).bytes(4, line(6)).b)
	p.bytes(4, (&pb{}).varint(1, 7).bytes(4, line(7)).b)
	p.bytes(4, (&pb{}).varint(1, 8).bytes(4, line(8)).b)
	p.bytes(4, (&pb{}).varint(1, 9).bytes(4, line(9)).b)
	for i := uint64(1); i <= 9; i++ {
		p.bytes(5, (&pb{}).varint(1, i).varint(2, i+4).b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerSharesFixture(t *testing.T) {
	shares, total, err := layerShares(fixtureProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	if total != 110e6 {
		t.Fatalf("total = %d ns, want 110ms", total)
	}
	want := map[string]float64{"cache": 30 / 110.0, "simcache": 25 / 110.0, "runtime": 45 / 110.0, "other": 10 / 110.0}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("%s share = %g, want %g", l, shares[l], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares = %v, want exactly %v", shares, want)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cache.(*Cache).Access":         "cache",
		"repro/internal/prefetch/spp.(*SPP).Train":     "prefetch.spp",
		"repro/internal/prefetch.(*Queue).Push":        "prefetch",
		"repro/internal/core.(*Engine).Observe":        "prefetch",
		"runtime.mallocgc":                             "",
		"encoding/json.(*encodeState).marshal":         "netjson",
		"net/http.(*conn).serve":                       "netjson",
		"net/http/httptest.(*Server).Close":            "netjson",
		"main.run":                                     "bench",
		"slices.SortFunc[go.shape.struct { repro/x }]": "",
		"crypto/sha256.block":                          "",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("layer of %q = %q, want %q", fn, got, want)
		}
	}
}

// TestLayerSharesRealProfile checks the decoder against the runtime's own
// encoder: a busy loop in this package must land in the bench layer.
func TestLayerSharesRealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for 300ms")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, total, err := layerShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Skip("no samples collected")
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share of a busy loop = %g (shares %v)", shares["bench"], shares)
	}
}

var spinSink uint64

func spin(d time.Duration) {
	end := time.Now().Add(d)
	x := uint64(1)
	for time.Now().Before(end) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	spinSink = x
}
