// Command ptrace records workload generators into compact binary traces
// (PSAT format) and inspects existing trace files. Recorded traces replay in
// psim via its -trace flag, making the simulator fully trace-driven.
//
// Usage:
//
//	ptrace -record milc.psat -workload milc -n 1000000
//	ptrace -info milc.psat
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// footprint tallies how many times each page (at one page-size granularity)
// is touched, then folds the per-page counts into a telemetry.Histogram so
// -info can print the reuse distribution.
type footprint struct {
	shift uint
	pages map[uint64]uint64
}

func newFootprint(pageBits uint) *footprint {
	return &footprint{shift: pageBits, pages: map[uint64]uint64{}}
}

func (f *footprint) touch(vaddr uint64) { f.pages[vaddr>>f.shift]++ }

// histogram buckets pages by accesses-per-page (powers of four).
func (f *footprint) histogram() *telemetry.Histogram {
	h := telemetry.NewHistogram(1, 4, 16, 64, 256, 1024, 4096, 16384)
	for _, n := range f.pages {
		h.Observe(n)
	}
	return h
}

// printFootprint renders one page-size row plus its reuse histogram.
func printFootprint(w io.Writer, label string, pageBytes uint64, f *footprint) {
	h := f.histogram()
	touched := uint64(len(f.pages))
	fmt.Fprintf(w, "%s pages:     %d touched (%.1f MiB footprint, %.1f accesses/page)\n",
		label, touched, float64(touched*pageBytes)/(1<<20), h.Mean())
	var rows []string
	lo := uint64(1)
	for _, b := range h.Buckets() {
		if b.Count == 0 {
			if !b.Overflow {
				lo = b.UpperBound + 1
			}
			continue
		}
		switch {
		case b.Overflow:
			rows = append(rows, fmt.Sprintf(">%d:%d", lo-1, b.Count))
		case b.UpperBound == lo:
			rows = append(rows, fmt.Sprintf("%d:%d", lo, b.Count))
			lo = b.UpperBound + 1
		default:
			rows = append(rows, fmt.Sprintf("%d-%d:%d", lo, b.UpperBound, b.Count))
			lo = b.UpperBound + 1
		}
	}
	fmt.Fprintf(w, "  accesses/page: %s\n", strings.Join(rows, " "))
}

func main() {
	var (
		record   = flag.String("record", "", "output trace file to record into")
		workload = flag.String("workload", "", "workload to record (see psim -workloads)")
		n        = flag.Uint64("n", 1_000_000, "accesses to record")
		seed     = flag.Uint64("seed", 1, "generator seed")
		info     = flag.String("info", "", "trace file to summarise")
	)
	flag.Parse()

	switch {
	case *record != "":
		if *workload == "" {
			fmt.Fprintln(os.Stderr, "ptrace: -record requires -workload")
			os.Exit(2)
		}
		w, err := trace.ByName(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f, err := os.Create(*record)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		tw := trace.NewWriter(f)
		got, err := trace.Record(tw, w.New(*seed), *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		st, _ := f.Stat()
		fmt.Printf("recorded %d accesses of %s into %s (%d bytes, %.2f B/access)\n",
			got, w.Name, *record, st.Size(), float64(st.Size())/float64(got))

	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		r := trace.NewFileReader(f)
		var a trace.Access
		var count, writes, instrs uint64
		minV, maxV := ^uint64(0), uint64(0)
		fp4k, fp2m := newFootprint(12), newFootprint(21)
		for r.Next(&a) {
			count++
			instrs += uint64(a.Gap) + 1
			if a.Write {
				writes++
			}
			if uint64(a.VAddr) < minV {
				minV = uint64(a.VAddr)
			}
			if uint64(a.VAddr) > maxV {
				maxV = uint64(a.VAddr)
			}
			fp4k.touch(uint64(a.VAddr))
			fp2m.touch(uint64(a.VAddr))
		}
		if err := r.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("accesses:      %d (%d writes, %.1f%%)\n", count, writes,
			float64(writes)/float64(count)*100)
		fmt.Printf("instructions:  %d\n", instrs)
		fmt.Printf("vaddr range:   %#x .. %#x\n", minV, maxV)
		// The same footprint at both granularities shows how much a 2MB
		// mapping would cover: many 4KB pages folding into few 2MB pages is
		// exactly the locality page-size-aware prefetching exploits.
		printFootprint(os.Stdout, "4KB", 4<<10, fp4k)
		printFootprint(os.Stdout, "2MB", 2<<20, fp2m)
		// The digest is the replay's cache identity: psim -trace folds it
		// into simulation result-cache keys as the workload's ContentID.
		digest, err := trace.FileDigest(*info)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("digest:        %s\n", digest)

	default:
		flag.Usage()
		os.Exit(2)
	}
}
