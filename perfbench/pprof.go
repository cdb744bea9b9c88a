package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file groups a CPU profile (the gzipped profile.proto that
// runtime/pprof writes) by simulator layer with the standard library only:
// a minimal protobuf decoder reads samples, locations, functions and the
// string table, and every sample's CPU time is charged to the innermost
// frame whose package belongs to a layer. Frames of unmapped packages
// (sort, os, syscall, crypto/sha256, ...) pass their time up to the caller,
// so a SHA-256 inside simcache.Key is simcache time. Runtime frames pass
// their time up too (a memmove or a system call belongs to its caller),
// except below the garbage-collection, allocation and scheduling entry
// points in runtimeEntries: the runtime layer is GC, malloc and scheduling.

// families are the prefetcher families under internal/prefetch; each gets
// its own prefetch.<family> row.
var families = []string{
	"ampm", "bop", "ipcp", "nextline", "pangloss", "ppf", "sms", "spp", "temporal", "vamp", "vldp",
}

// packageLayers maps an exact package path to its layer.
var packageLayers = map[string]string{
	"repro/internal/cpu":         "cpu",
	"repro/internal/cache":       "cache",
	"repro/internal/mem":         "cache",
	"repro/internal/vm":          "vm",
	"repro/internal/dram":        "dram",
	"repro/internal/prefetch":    "prefetch",
	"repro/internal/core":        "prefetch",
	"repro/internal/trace":       "trace",
	"repro/internal/sim":         "sim",
	"repro/internal/simcache":    "simcache",
	"repro/internal/service":     "service",
	"repro/internal/cluster":     "cluster",
	"repro/internal/experiments": "experiments",
	"repro/internal/stats":       "experiments",
	"repro/internal/progress":    "experiments",
	"repro/internal/telemetry":   "telemetry",
	"repro/internal/dtrace":      "telemetry",
	"main":                       "bench",
	"repro/perfbench":            "bench",
	"net":                        "netjson",
	"net/http":                   "netjson",
	"net/textproto":              "netjson",
	"net/url":                    "netjson",
	"mime":                       "netjson",
	"encoding/json":              "netjson",
}

// prefixLayers maps package-path prefixes to layers, for package trees.
var prefixLayers = []struct{ prefix, layer string }{
	{"net/http/", "netjson"},
	{"vendor/golang.org/x/net/", "netjson"},
}

// runtimeEntries are the runtime functions (name prefixes) whose time is the
// runtime layer's whatever called them: garbage collection, allocation and
// the scheduler.
var runtimeEntries = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.convT", "runtime.gc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot",
	"runtime.scanobject", "runtime.schedule", "runtime.findRunnable", "runtime.mcall",
	"runtime.park_m", "runtime.goexit0",
}

func isRuntimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// cpuLayers is every layer a cpu_share row is reported for, in report order.
// "other" collects samples no frame of which maps to a layer.
func cpuLayers() []string {
	out := []string{"cpu", "cache", "vm", "dram", "prefetch"}
	for _, f := range families {
		out = append(out, "prefetch."+f)
	}
	return append(out, "trace", "sim", "simcache", "service", "cluster", "netjson",
		"runtime", "experiments", "telemetry", "bench", "other")
}

// packageOf extracts the package path from a symbol name such as
// "repro/internal/cache.(*Cache).Access" or "encoding/json.Marshal".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a package path to its layer, or "" when unmapped.
func layerOf(pkg string) string {
	if fam, ok := strings.CutPrefix(pkg, "repro/internal/prefetch/"); ok {
		return "prefetch." + fam
	}
	if l, ok := packageLayers[pkg]; ok {
		return l
	}
	for _, p := range prefixLayers {
		if strings.HasPrefix(pkg, p.prefix) {
			return p.layer
		}
	}
	return ""
}

// profile is the subset of profile.proto the grouping needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []pbSample
	locations   map[uint64][]uint64 // location id → function ids, innermost first
	functions   map[uint64]int64    // function id → name string index
	strings     []string
}

type pbSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// layerShares decodes a gzipped CPU profile and returns each layer's share
// of the profile's CPU time, plus the total CPU time in nanoseconds.
func layerShares(gz []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	vi := len(p.sampleTypes) - 1 // the last value is "cpu nanoseconds"
	for i, st := range p.sampleTypes {
		if st >= 0 && int(st) < len(p.strings) && p.strings[st] == "cpu" {
			vi = i
		}
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		v := s.values[vi]
		total += v
		byLayer[p.sampleLayer(s)] += v
	}
	shares := map[string]float64{}
	for l, v := range byLayer {
		shares[l] = ratio(float64(v), float64(total))
	}
	return shares, total, nil
}

// sampleLayer walks a sample's frames from the leaf outward and returns the
// first layer they reach: "runtime" at a runtime entry point, else the first
// mapped package. A stack of runtime frames alone (GC workers, the
// scheduler, the profiler) is runtime; one with no mapped frame is "other".
func (p *profile) sampleLayer(s pbSample) string {
	sawRuntime := false
	for _, loc := range s.locs {
		for _, fid := range p.locations[loc] {
			name := p.functions[fid]
			if name < 0 || int(name) >= len(p.strings) {
				continue
			}
			fn := p.strings[name]
			for _, e := range runtimeEntries {
				if strings.HasPrefix(fn, e) {
					return "runtime"
				}
			}
			pkg := packageOf(fn)
			if isRuntimePackage(pkg) {
				sawRuntime = true
				continue
			}
			if l := layerOf(pkg); l != "" {
				return l
			}
		}
	}
	if sawRuntime {
		return "runtime"
	}
	return "other"
}

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			var typ int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample: location_id=1, value=2 (both possibly packed)
			var s pbSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, w, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: id=1, line=4 (Line{function_id=1})
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case 5: // function: id=1, name=2
			var id uint64
			var name int64 = -1
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			if wire != 2 {
				return errors.New("pprof: string_table entry is not length-delimited")
			}
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField iterates the fields of one protobuf message. For varint and
// fixed fields v holds the value; for length-delimited fields b holds the
// payload.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			v = binary.LittleEndian.Uint64(buf)
			buf = buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("pprof: truncated length-delimited field")
			}
			b = buf[n : n+int(l)]
			buf = buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(buf))
			buf = buf[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (wire 2) or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
