package experiments

import (
	"fmt"
	"io"

	"rupam/internal/core"
)

// AblationRow is one variant's execution time relative to full RUPAM.
type AblationRow struct {
	Variant  string
	Workload string
	Seconds  float64
	VsFull   float64 // variant time / full-RUPAM time (>1 = variant worse)
}

// AblationResult collects the design-choice ablations of DESIGN.md.
type AblationResult struct {
	Rows []AblationRow
}

// ablationCases maps each ablation to the workload that exercises the
// disabled mechanism hardest.
var ablationCases = []struct {
	name     string
	workload string
	cfg      core.Config
}{
	{"full", "LR", core.Config{}},
	{"no-locking", "LR", core.Config{DisableLocking: true}},
	{"full", "PR", core.Config{}},
	{"no-mem-aware", "PR", core.Config{DisableMemAware: true}},
	{"full", "TeraSort", core.Config{}},
	{"no-round-robin", "TeraSort", core.Config{DisableRR: true}},
	{"full", "KMeans", core.Config{}},
	{"no-gpu-race", "KMeans", core.Config{DisableGPURace: true}},
	{"res-factor-1", "LR", core.Config{ResFactor: 1.0001}},
	{"res-factor-4", "LR", core.Config{ResFactor: 4}},
}

// Ablations runs each RUPAM variant on its stress workload.
func Ablations(seed uint64) AblationResult {
	if seed == 0 {
		seed = 1
	}
	full := make(map[string]float64)
	var res AblationResult
	for _, c := range ablationCases {
		r := Run(RunSpec{
			Workload:  c.workload,
			Scheduler: SchedRUPAM,
			RUPAM:     c.cfg,
			Seed:      seed,
		})
		if c.name == "full" {
			full[c.workload] = r.Duration
		}
		row := AblationRow{Variant: c.name, Workload: c.workload, Seconds: r.Duration}
		if f := full[c.workload]; f > 0 {
			row.VsFull = r.Duration / f
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// ResFactorSweep measures sensitivity to Algorithm 1's Res_factor on a
// workload (the paper's user-tunable characterization threshold).
func ResFactorSweep(workload string, factors []float64, seed uint64) []AblationRow {
	if len(factors) == 0 {
		factors = []float64{1.2, 1.5, 2, 3, 4, 6}
	}
	if seed == 0 {
		seed = 1
	}
	var rows []AblationRow
	for _, f := range factors {
		r := Run(RunSpec{
			Workload:  workload,
			Scheduler: SchedRUPAM,
			RUPAM:     core.Config{ResFactor: f},
			Seed:      seed,
		})
		rows = append(rows, AblationRow{
			Variant:  fmt.Sprintf("res-factor-%.1f", f),
			Workload: workload,
			Seconds:  r.Duration,
		})
	}
	return rows
}

// Print writes the ablation table.
func (r AblationResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablations: RUPAM variants on their stress workloads")
	fmt.Fprintf(w, "%-16s %-10s %10s %8s\n", "variant", "workload", "time(s)", "vs full")
	for _, row := range r.Rows {
		vs := "-"
		if row.VsFull > 0 {
			vs = fmt.Sprintf("%.2fx", row.VsFull)
		}
		fmt.Fprintf(w, "%-16s %-10s %10.1f %8s\n", row.Variant, row.Workload, row.Seconds, vs)
	}
}
