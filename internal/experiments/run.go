// Package experiments wires clusters, workloads and schedulers into the
// paper's evaluation: one driver per table and figure, each producing the
// same rows or series the paper reports. The cmd/rupam-bench binary and
// the repository's bench_test.go both call into this package.
package experiments

import (
	"fmt"
	"os"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/tracing"
	"rupam/internal/workloads"
)

// Schedulers evaluated throughout.
const (
	SchedSpark = "spark"
	SchedRUPAM = "rupam"
)

// RunSpec describes one simulated application run.
type RunSpec struct {
	// Workload is a package workloads name ("LR", "PR", ...).
	Workload string
	// Params overrides the workload's Table III defaults (zero fields
	// keep them).
	Params workloads.Params
	// Scheduler is SchedSpark or SchedRUPAM.
	Scheduler string
	// Cluster is "hydra" (default) or "motivation".
	Cluster string
	// Seed perturbs placement, skew and failure randomness — the paper's
	// five repetitions use five seeds.
	Seed uint64
	// RUPAM carries scheduler tunables/ablations for SchedRUPAM runs.
	RUPAM core.Config
	// Spark carries framework overrides (zero fields keep defaults).
	Spark spark.Config
	// Trace enables utilization recording (needed by Figures 2, 8, 9).
	Trace bool
	// Tracer, when non-nil, records structured events (task lifecycle,
	// scheduler decisions, faults) for export and critical-path analysis.
	Tracer *tracing.Collector
}

// BuildCluster constructs the named topology on a fresh engine.
func BuildCluster(eng *simx.Engine, name string) *cluster.Cluster {
	clu := cluster.New(eng)
	switch name {
	case "", "hydra":
		cluster.NewHydra(clu)
	case "motivation":
		cluster.NewMotivation(clu)
	default:
		panic(fmt.Sprintf("experiments: unknown cluster %q", name))
	}
	return clu
}

// Run executes one application under one scheduler on a fresh simulated
// cluster and returns the framework's result.
func Run(spec RunSpec) *spark.Result {
	rt, app := newRun(spec)
	return rt.Run(app)
}

// newRun builds the runtime and application Run executes.
func newRun(spec RunSpec) (*spark.Runtime, *task.Application) {
	eng := simx.NewEngine()
	clu := BuildCluster(eng, spec.Cluster)

	store := hdfs.NewStore(clu.NodeNames(), 2, spec.Seed*2654435761+1)
	p := spec.Params
	if p.Seed == 0 {
		p.Seed = spec.Seed*7 + 42
	}
	app := workloads.Build(spec.Workload, store, p)

	var sched spark.Scheduler
	switch spec.Scheduler {
	case SchedRUPAM:
		sched = core.New(spec.RUPAM)
	case "", SchedSpark:
		sched = spark.NewDefaultScheduler()
	default:
		panic(fmt.Sprintf("experiments: unknown scheduler %q", spec.Scheduler))
	}

	cfg := spec.Spark
	cfg.Seed = spec.Seed*31 + 7
	cfg.Tracer = spec.Tracer
	if !spec.Trace && cfg.SampleInterval == 0 {
		cfg.SampleInterval = -1 // disable tracing unless requested
	}
	return spark.NewRuntime(eng, clu, sched, cfg), app
}

// Repeat runs the spec with seeds 1..n (clearing all state between runs,
// as the paper clears DB_taskchar) and returns the durations.
func Repeat(spec RunSpec, n int) []float64 {
	durations := make([]float64, n)
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = uint64(i + 1)
		durations[i] = Run(s).Duration
	}
	return durations
}

// appOf rebuilds a spec's application without running it (task counts etc.).
func appOf(spec RunSpec) *task.Application {
	eng := simx.NewEngine()
	clu := BuildCluster(eng, spec.Cluster)
	store := hdfs.NewStore(clu.NodeNames(), 2, spec.Seed*2654435761+1)
	p := spec.Params
	if p.Seed == 0 {
		p.Seed = spec.Seed*7 + 42
	}
	return workloads.Build(spec.Workload, store, p)
}

// RunWithCharDB runs a RUPAM spec warm-started from (and saved back to)
// a persisted task-characteristics database file. It returns the run
// result and the number of records persisted. A missing file starts cold.
func RunWithCharDB(spec RunSpec, path string) (*spark.Result, int) {
	eng := simx.NewEngine()
	clu := BuildCluster(eng, spec.Cluster)
	store := hdfs.NewStore(clu.NodeNames(), 2, spec.Seed*2654435761+1)
	p := spec.Params
	if p.Seed == 0 {
		p.Seed = spec.Seed*7 + 42
	}
	app := workloads.Build(spec.Workload, store, p)

	sched := core.New(spec.RUPAM)
	if err := sched.DB().LoadFile(path); err != nil && !os.IsNotExist(err) {
		// A corrupt snapshot is not fatal: the characterization history is
		// a performance hint, so warn and start cold. SaveFile below writes
		// the replacement atomically.
		fmt.Fprintf(os.Stderr, "experiments: chardb %s unreadable (%v); starting cold\n", path, err)
		sched.DB().Clear()
	}

	cfg := spec.Spark
	cfg.Seed = spec.Seed*31 + 7
	cfg.Tracer = spec.Tracer
	if !spec.Trace && cfg.SampleInterval == 0 {
		cfg.SampleInterval = -1
	}
	rt := spark.NewRuntime(eng, clu, sched, cfg)
	res := rt.Run(app)

	if err := sched.DB().SaveFile(path); err != nil {
		panic(fmt.Sprintf("experiments: saving chardb %s: %v", path, err))
	}
	return res, sched.DB().RecordCount()
}
