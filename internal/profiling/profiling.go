// Package profiling backs the commands' -cpuprofile and -memprofile flags.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile into cpuPath when it is non-empty. The returned
// stop, deferred by the caller, first writes a heap profile of the final live
// set into memPath (when non-empty) and then ends the CPU profile. A failed
// heap profile is reported on stderr, not returned: the run it profiles has
// already finished.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if memPath != "" {
			writeHeap(memPath)
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
	}, nil
}

func writeHeap(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
		return
	}
	runtime.GC() // materialize the final live set
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}
