package experiments

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
)

// detJobs builds a small cross-prefetcher batch over a reduced workload set.
func detJobs(t *testing.T, o Options) []Job {
	t.Helper()
	var jobs []Job
	for _, w := range o.Workloads {
		jobs = append(jobs,
			Job{Workload: w, Spec: sim.PrefSpec{Base: "none"}},
			Job{Workload: w, Spec: sim.PrefSpec{Base: "spp", Variant: core.PSA}},
			Job{Workload: w, Spec: sim.PrefSpec{Base: "bop", Variant: core.PSASD}},
			// The two crossing families: pangloss exercises the Markov chain
			// walker, vamp the virtual-candidate translation path (TLB-probe
			// gated) — both must be as parallelism- and replay-deterministic
			// as the original four.
			Job{Workload: w, Spec: sim.PrefSpec{Base: "pangloss", Variant: core.PSASD}},
			Job{Workload: w, Spec: sim.PrefSpec{Base: "vamp", Variant: core.PSA}},
		)
	}
	return jobs
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunBatchDeterminism is the soundness precondition for the result
// cache: a batch's results must not depend on worker parallelism, and two
// runs with identical options must be byte-identical.
func TestRunBatchDeterminism(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:3]
	o.Warmup = 20_000
	o.Instructions = 80_000
	jobs := detJobs(t, o)

	o.Parallelism = 1
	serial, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 8
	parallel, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sb, pb := mustJSON(t, serial), mustJSON(t, parallel); !bytes.Equal(sb, pb) {
		t.Errorf("parallelism changed results:\nserial   %s\nparallel %s", sb, pb)
	}

	o.Parallelism = runtime.GOMAXPROCS(0)
	maxprocs, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if sb, mb := mustJSON(t, serial), mustJSON(t, maxprocs); !bytes.Equal(sb, mb) {
		t.Errorf("GOMAXPROCS parallelism changed results:\nserial   %s\nmaxprocs %s", sb, mb)
	}

	again, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := mustJSON(t, parallel), mustJSON(t, again); !bytes.Equal(a, b) {
		t.Error("two identical-seed runs diverged")
	}
}

// TestRunBatchPoolingEquivalence: the pooled request path (the default) and
// fresh per-access allocation must be observationally identical — the
// zero-allocation overhaul is an optimisation, never a semantic change. A
// divergence here means some component retained a pooled *mem.Request beyond
// its synchronous Access call.
func TestRunBatchPoolingEquivalence(t *testing.T) {
	o := tinyOptions(t)
	o.Workloads = o.Workloads[:3]
	o.Warmup = 20_000
	o.Instructions = 80_000
	jobs := detJobs(t, o)

	pooled, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}

	mem.FreshRequests = true
	defer func() { mem.FreshRequests = false }()
	fresh, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if pb, fb := mustJSON(t, pooled), mustJSON(t, fresh); !bytes.Equal(pb, fb) {
		t.Errorf("pooled and fresh-allocation runs diverged:\npooled %s\nfresh  %s", pb, fb)
	}
}

// TestRunBatchSeedSensitivity: the seed must actually matter, or the cache
// key's Seed component would be dead weight.
func TestRunBatchSeedSensitivity(t *testing.T) {
	o := tinyOptions(t)
	// soplex and pr.road drive their generators from the run seed; pure
	// stream workloads (libquantum, milc) are intentionally seed-invariant.
	o.Workloads = o.Workloads[2:4]
	o.Warmup = 20_000
	o.Instructions = 80_000
	jobs := detJobs(t, o)
	r1, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	o.Seed = 2
	r2, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(mustJSON(t, r1), mustJSON(t, r2)) {
		t.Error("seed change produced identical results")
	}
}
