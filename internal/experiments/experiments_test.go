package experiments

import (
	"testing"

	"rupam/internal/core"
	"rupam/internal/task"
	"rupam/internal/workloads"
)

func TestRunCompletesEveryWorkload(t *testing.T) {
	for _, w := range workloads.Names() {
		w := w
		t.Run(w, func(t *testing.T) {
			for _, sch := range []string{SchedSpark, SchedRUPAM} {
				res := Run(RunSpec{Workload: w, Scheduler: sch, Seed: 1})
				if res.Duration <= 0 {
					t.Fatalf("%s/%s: zero duration", w, sch)
				}
				for _, tk := range res.App.AllTasks() {
					if tk.State != task.Finished {
						t.Fatalf("%s/%s: %s unfinished", w, sch, tk)
					}
				}
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := RunSpec{Workload: "PR", Scheduler: SchedRUPAM, Seed: 3}
	if a, b := Run(spec).Duration, Run(spec).Duration; a != b {
		t.Fatalf("same spec differed: %v vs %v", a, b)
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	a := Run(RunSpec{Workload: "PR", Scheduler: SchedSpark, Seed: 1}).Duration
	b := Run(RunSpec{Workload: "PR", Scheduler: SchedSpark, Seed: 2}).Duration
	if a == b {
		t.Fatal("different seeds produced identical PR runs (failure randomness dead?)")
	}
}

func TestMotivationCluster(t *testing.T) {
	res := Run(RunSpec{Workload: "MatMul", Scheduler: SchedSpark, Cluster: "motivation", Seed: 1})
	if res.Duration <= 0 {
		t.Fatal("motivation run failed")
	}
}

func TestUnknownSchedulerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown scheduler accepted")
		}
	}()
	Run(RunSpec{Workload: "LR", Scheduler: "nope", Seed: 1})
}

func TestUnknownClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown cluster accepted")
		}
	}()
	Run(RunSpec{Workload: "LR", Cluster: "nope", Seed: 1})
}

// ---- paper-shape assertions -------------------------------------------------

func TestShapeFig6SpeedupGrowsWithIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Fig6([]int{1, 4, 12}, 1)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if !res.Monotone() {
		t.Errorf("RUPAM fell below parity: %+v", res.Points)
	}
	if res.Points[2].Speedup <= res.Points[0].Speedup {
		t.Errorf("speedup did not grow with iterations: %+v", res.Points)
	}
	if res.MaxSpeedup() < 1.5 {
		t.Errorf("max speedup %.2f too small for 12 iterations", res.MaxSpeedup())
	}
}

func TestShapeTab5RackAlwaysZero(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Tab5(1)
	for _, row := range res.Rows {
		if row.Spark.Rack != 0 || row.RUPAM.Rack != 0 {
			t.Errorf("%s: RACK_LOCAL tasks on a single-rack cluster", row.Workload)
		}
		if row.Spark.Total() == 0 || row.RUPAM.Total() == 0 {
			t.Errorf("%s: empty locality counts", row.Workload)
		}
	}
}

func TestShapeFig9RupamBetterBalanced(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Fig9(1)
	if len(res.Spark.Times) == 0 || len(res.RUPAM.Times) == 0 {
		t.Fatal("empty balance series")
	}
	// The paper's claim: RUPAM keeps a lower average utilization spread
	// across nodes. CPU is the most robust of the three signals.
	if res.RUPAMAvg.CPU > res.SparkAvg.CPU*1.15 {
		t.Errorf("RUPAM CPU spread %.1f much worse than Spark %.1f",
			res.RUPAMAvg.CPU, res.SparkAvg.CPU)
	}
}

func TestShapeFig2PhasesPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Fig2(1)
	times, cpu, mem, ni, _, _, dw := res.ClusterSeries()
	if len(times) < 5 {
		t.Fatalf("trace too short: %d samples", len(times))
	}
	maxOf := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	if maxOf(cpu) < 20 {
		t.Error("no CPU activity in MatMul trace")
	}
	if maxOf(mem) <= 0 {
		t.Error("no memory footprint in MatMul trace")
	}
	if maxOf(ni) <= 0 {
		t.Error("no network traffic in MatMul trace")
	}
	if maxOf(dw) <= 0 {
		t.Error("no disk writes in MatMul trace")
	}
}

func TestShapeFig3SkewAndImbalance(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Fig3(1)
	if len(res.Rows) == 0 {
		t.Fatal("no task rows")
	}
	counts := res.NodeCounts()
	if len(counts) != 2 {
		t.Fatalf("tasks on %d nodes, want 2", len(counts))
	}
	if res.MaxSkew() < 2 {
		t.Errorf("intra-stage skew %.1fx too small to motivate the paper", res.MaxSkew())
	}
}

func TestShapeAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res := Ablations(1)
	if len(res.Rows) != len(ablationCases) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Seconds <= 0 {
			t.Errorf("%s/%s did not run", row.Variant, row.Workload)
		}
	}
}

func TestRUPAMConfigPlumbing(t *testing.T) {
	// An extreme ablation must change behavior measurably.
	full := Run(RunSpec{Workload: "PR", Scheduler: SchedRUPAM, Seed: 1}).Duration
	ablated := Run(RunSpec{
		Workload:  "PR",
		Scheduler: SchedRUPAM,
		Seed:      1,
		RUPAM:     core.Config{DisableMemAware: true},
	}).Duration
	if full == ablated {
		t.Fatal("DisableMemAware had no effect on PR")
	}
}
