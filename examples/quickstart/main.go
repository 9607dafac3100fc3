// Quickstart: build the paper's 12-node heterogeneous Hydra cluster, run
// PageRank under the default Spark scheduler and under RUPAM, and compare.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/hdfs"
	"rupam/internal/metrics"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/workloads"
)

// runOnce wires the full stack by hand — engine, cluster, block store,
// workload, scheduler, runtime — the same steps the experiments package
// automates.
func runOnce(schedName string) *spark.Result {
	// Fresh simulation world.
	eng := simx.NewEngine()

	// The heterogeneous cluster of Table II.
	clu := cluster.New(eng)
	cluster.NewHydra(clu)

	// A replicated block store over the cluster's nodes.
	store := hdfs.NewStore(clu.NodeNames(), 2, 42)

	// The PageRank workload from the SparkBench-equivalent suite.
	app := workloads.Build("PR", store, workloads.Params{Seed: 7})

	// Pick the task scheduler under test.
	var sched spark.Scheduler
	if schedName == "rupam" {
		sched = core.New(core.Config{})
	} else {
		sched = spark.NewDefaultScheduler()
	}

	// Run to completion on virtual time.
	rt := spark.NewRuntime(eng, clu, sched, spark.Config{Seed: 7})
	return rt.Run(app)
}

func main() {
	fmt.Println("PageRank on the 12-node Hydra cluster:")
	var results []*spark.Result
	for _, sched := range []string{"spark", "rupam"} {
		res := runOnce(sched)
		results = append(results, res)
		lc := metrics.AppLocality(res.App)
		fmt.Printf("  %-6s %7.1fs  (OOMs=%d crashes=%d, locality P/N/A=%d/%d/%d)\n",
			res.Scheduler, res.Duration, res.OOMs, res.Crashes,
			lc.Process, lc.Node, lc.Any)
	}
	fmt.Printf("speedup: %.2fx\n", results[0].Duration/results[1].Duration)

	// Peek at a few task records to see what the framework captured.
	fmt.Println("\nsample task metrics (RUPAM run):")
	shown := 0
	for _, t := range results[1].App.AllTasks() {
		m := t.SuccessMetrics()
		if m == nil || t.Kind != task.ShuffleMap || shown >= 5 {
			continue
		}
		shown++
		fmt.Printf("  %-34s on %-7s compute=%5.2fs gc=%5.2fs shuffle=%5.2fs peakMem=%4dMB\n",
			t.String(), m.Executor, m.ComputeTime, m.GCTime,
			m.ShuffleReadTime+m.ShuffleWriteTime, m.PeakMemory/(1<<20))
	}
}
