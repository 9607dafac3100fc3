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
	"rupam/internal/workloads"
)

// GateSeeds is the smallest sweep on which a gate over policy means —
// the streaming placement ordering, the elastic cost-vs-makespan
// frontier — is evaluated. One seed's outcome is hostage to one
// topology's shape or one arrival stream's placement luck; five seeds is
// the smallest sweep where the policy means separate from that noise (on
// seeds 1–2 the resource-aware streaming mean falls below round-robin's,
// and the graceful drain's mean makespan is above the notice-blind
// baseline's), so neither claim is checked on fewer. Per-run invariant
// violations fail a sweep of any size.
const GateSeeds = 5

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
	// Spark carries framework overrides (zero fields keep defaults;
	// utilization is recorded, as Figures 2, 8 and 9 need, only when
	// SampleInterval is positive).
	Spark spark.Config
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
	rt, app := NewRun(spec)
	return rt.Run(app)
}

// NewRun builds the runtime and application of one run without starting
// it. It is the one place a run's seeds are derived from spec.Seed: the
// data placement, the workload draw and the framework's failure coins,
// so a Spark run and a RUPAM run with the same seed differ only in the
// scheduler.
func NewRun(spec RunSpec) (*spark.Runtime, *task.Application) {
	eng := simx.NewEngine()
	clu := BuildCluster(eng, spec.Cluster)

	store := hdfs.NewStore(clu.NodeNames(), 2, spec.Seed*2654435761+1)
	p := spec.Params
	if p.Seed == 0 {
		p.Seed = spec.Seed*7 + 42
	}
	app := workloads.Build(spec.Workload, store, p)
	return newRuntime(eng, clu, spec), app
}

// newRuntime is NewRun's runtime half: spec's scheduler and framework
// configuration on clu, with the framework seed derived from spec.Seed.
// A caller that builds its own application uses it directly.
func newRuntime(eng *simx.Engine, clu *cluster.Cluster, spec RunSpec) *spark.Runtime {
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
	cfg.Seed = spark.FrameworkSeed(spec.Seed, 0)
	return spark.NewRuntime(eng, clu, sched, cfg)
}

// HardenedConfig is the framework configuration fault runs use: bounded
// retries (so doomed tasks abort instead of spinning), the node blacklist
// on, a speculation cap, a tight heartbeat so loss windows are observed,
// and a low sim-time ceiling so a livelock fails fast (as a recovered
// panic) instead of hanging a sweep. The chaos soaks, the elastic sweep
// and rupam-sim's -chaos-seed mode all run under it; NewRun and the
// multi-application harnesses set the seed themselves.
func HardenedConfig() spark.Config {
	return spark.Config{
		TaskMaxFailures:        8,
		Blacklist:              spark.BlacklistConfig{Enabled: true},
		SpeculationMaxPerStage: 4,
		HeartbeatInterval:      0.5,
		HeartbeatTimeout:       4,
		MaxSimTime:             7200,
	}
}

// RunWithCharDB runs a RUPAM spec warm-started from (and saved back to)
// a persisted task-characteristics database file. It returns the run
// result and the number of records persisted. A missing file starts cold.
func RunWithCharDB(spec RunSpec, path string) (*spark.Result, int) {
	spec.Scheduler = SchedRUPAM
	rt, app := NewRun(spec)
	db := rt.Scheduler().(*core.RUPAM).DB()
	if err := db.LoadFile(path); err != nil && !os.IsNotExist(err) {
		// A corrupt snapshot is not fatal: the characterization history is
		// a performance hint, so warn and start cold. SaveFile below writes
		// the replacement atomically.
		fmt.Fprintf(os.Stderr, "experiments: chardb %s unreadable (%v); starting cold\n", path, err)
		db.Clear()
	}
	res := rt.Run(app)

	if err := db.SaveFile(path); err != nil {
		panic(fmt.Sprintf("experiments: saving chardb %s: %v", path, err))
	}
	return res, db.Size()
}
