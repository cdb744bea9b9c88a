package experiments

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden figure files")

// goldenOptions pins every input that feeds a figure: scale, seed,
// workloads. Parallelism is deliberately above 1 — determinism across worker
// counts is guaranteed by TestRunBatchDeterminism, so goldens double as a
// regression check on that guarantee.
func goldenOptions(t *testing.T) Options {
	t.Helper()
	o := DefaultOptions()
	o.Warmup = 20_000
	o.Instructions = 80_000
	o.Seed = 1
	o.Parallelism = 4
	ws, err := WorkloadsByName([]string{"libquantum", "milc", "soplex", "pr.road"})
	if err != nil {
		t.Fatal(err)
	}
	o.Workloads = ws
	return o
}

// TestGoldenFigures snapshot-tests Render() for Figure 2, Figure 8, the
// crossing study, and Table 1 at a tiny fixed-seed scale, so a figure-shape
// regression (changed metric derivation, broken aggregation, perturbed
// simulation) fails CI instead of waiting for someone to eyeball results/.
func TestGoldenFigures(t *testing.T) {
	for _, name := range []string{"fig2", "fig8", "crossing", "table1"} {
		name := name
		t.Run(name, func(t *testing.T) {
			r, err := Run(name, goldenOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			got := r.Render()
			path := filepath.Join("testdata", "golden_"+name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create goldens)", err)
			}
			if got != string(want) {
				t.Errorf("%s render drifted from golden.\n--- got ---\n%s--- want ---\n%s"+
					"(intentional? regenerate with: go test ./internal/experiments -run TestGolden -update)",
					name, got, want)
			}
		})
	}
}

// TestGoldenMatrix pins every field of every job's sim.Result over a
// workload×prefetcher matrix: one line per job, its label and the SHA-256 of
// its JSON encoding. The matrix is the quick determinism set (detJobs)
// widened with the engine families and configurations the figure goldens do
// not reach — ppf, vldp, an L1-prefetching (IPCP++) row, and further pangloss
// and vamp variants — so any hit/miss, replacement, MSHR, translation,
// proposal-count or timing change in any layer shows up as a changed digest.
func TestGoldenMatrix(t *testing.T) {
	o := tinyOptions(t)
	o.Warmup = 20_000
	o.Instructions = 80_000
	o.Parallelism = runtime.GOMAXPROCS(0)
	jobs := detJobs(t, o)
	for _, w := range o.Workloads[:2] {
		jobs = append(jobs,
			Job{Workload: w, Spec: sim.PrefSpec{Base: "ppf", Variant: core.PSA}},
			Job{Workload: w, Spec: sim.PrefSpec{Base: "vldp", Variant: core.Original}},
			Job{Workload: w, Spec: sim.PrefSpec{Base: "spp", Variant: core.PSA2MB, L1: sim.L1IPCPPP}},
			Job{Workload: w, Spec: sim.PrefSpec{Base: "pangloss", Variant: core.PSA2MB}},
			Job{Workload: w, Spec: sim.PrefSpec{Base: "vamp", Variant: core.PSASD}},
		)
	}
	results, err := runBatch(o, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, j := range jobs {
		fmt.Fprintf(&b, "%s/%s %x\n", j.Workload.Name, j.Spec, sha256.Sum256(mustJSON(t, results[i])))
	}
	got := b.String()
	path := filepath.Join("testdata", "golden_matrix.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d jobs)", path, len(jobs))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create goldens)", err)
	}
	if got != string(want) {
		t.Errorf("job results drifted from golden_matrix.txt.\n--- got ---\n%s--- want ---\n%s"+
			"(intentional? regenerate with: go test ./internal/experiments -run TestGolden -update)",
			got, want)
	}
}
