package experiments

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// panicReader panics after a fixed number of accesses, standing in for a
// broken generator or prefetcher deep inside a simulation.
type panicReader struct{ left int }

func (r *panicReader) Next(a *trace.Access) bool {
	if r.left <= 0 {
		panic("injected simulation failure")
	}
	r.left--
	a.VAddr = 0x40000000 + mem.Addr(r.left)*mem.BlockSize
	a.PC = 0x400000
	a.Gap = 1
	return true
}

// TestRunBatchRecoversPanics: a panic inside one simulation must fail only
// that job — surfaced through the batch's joined error with the job named —
// while the remaining jobs complete instead of the process crashing.
func TestRunBatchRecoversPanics(t *testing.T) {
	o := tinyOptions(t)
	o.Warmup = 5_000
	o.Instructions = 20_000
	o.Parallelism = 2

	bad := trace.Workload{
		Name: "panicker",
		New:  func(uint64) trace.Reader { return &panicReader{left: 100} },
	}
	jobs := []Job{
		{Workload: o.Workloads[0], Spec: sim.PrefSpec{Base: "none"}},
		{Workload: bad, Spec: sim.PrefSpec{Base: "none"}},
		{Workload: o.Workloads[1], Spec: sim.PrefSpec{Base: "none"}},
	}
	_, err := runBatch(o, jobs)
	if err == nil {
		t.Fatal("batch with a panicking job returned no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "panicked") || !strings.Contains(msg, "panicker") {
		t.Errorf("error does not attribute the panic to its job: %v", msg)
	}
	if strings.Contains(msg, o.Workloads[0].Name+"/") {
		t.Errorf("healthy job appears in the error: %v", msg)
	}

	// The same jobs without the saboteur must run clean — the recovery path
	// must not leak state (a held semaphore slot would hang this batch).
	good := []Job{jobs[0], jobs[2]}
	if _, err := runBatch(o, good); err != nil {
		t.Fatalf("healthy batch failed after recovered panic: %v", err)
	}
}

// TestFigure14RecoversMixPanics: a panicking mix run must fail its own
// (mix, scheme) run — surfaced through the figure's error with both named —
// instead of crashing the process. The saboteur's reader panics only when
// built for a core other than 0 (any seed but the run's), so its isolation
// runs, which use core 0's seed, succeed and only the mix runs fail.
func TestFigure14RecoversMixPanics(t *testing.T) {
	o := tinyOptions(t)
	good := o.Workloads[0]
	bad := good
	bad.Name = "panics-off-core0"
	bad.New = func(seed uint64) trace.Reader {
		if seed != o.Seed {
			return &panicReader{left: 100}
		}
		return good.New(seed)
	}
	o.Workloads = []trace.Workload{bad}

	_, err := Figure14(o)
	if err == nil {
		t.Fatal("Figure 14 with a panicking mix returned no error")
	}
	msg := err.Error()
	for _, want := range []string{"panicked", "mix 0, SPP-PSA", "mix 1, bop-original"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not name %q: %.300s", want, msg)
		}
	}
}
