package experiments

import (
	"fmt"
	"io"

	"rupam/internal/metrics"
	"rupam/internal/spark"
	"rupam/internal/stats"
)

// Fig7Workloads are the representative workloads of the breakdown and
// utilization studies: one per category (ML, database, graph).
var Fig7Workloads = []string{"LR", "SQL", "PR"}

// Fig7Row is one workload × scheduler breakdown.
type Fig7Row struct {
	Workload  string
	Scheduler string
	Breakdown metrics.Breakdown
}

// Fig7Result is the Figure 7 dataset.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7 reproduces Figure 7: execution-time decomposition into GC,
// compute, scheduler delay, shuffle-disk and shuffle-net for LR, SQL and
// PR under both schedulers.
func Fig7(seed uint64) Fig7Result {
	if seed == 0 {
		seed = 1
	}
	var res Fig7Result
	for _, w := range Fig7Workloads {
		for _, sch := range []string{SchedSpark, SchedRUPAM} {
			r := Run(RunSpec{Workload: w, Scheduler: sch, Seed: seed})
			res.Rows = append(res.Rows, Fig7Row{
				Workload:  w,
				Scheduler: sch,
				Breakdown: metrics.AppBreakdown(r.App),
			})
		}
	}
	return res
}

// Print writes the figure as a table (task-seconds per category).
func (r Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: execution-time breakdown (summed task-seconds)")
	fmt.Fprintf(w, "%-10s %-7s %10s %10s %10s %12s %12s\n",
		"workload", "sched", "compute", "GC", "sched", "shuffle-disk", "shuffle-net")
	for _, row := range r.Rows {
		b := row.Breakdown
		fmt.Fprintf(w, "%-10s %-7s %10.1f %10.1f %10.2f %12.1f %12.1f\n",
			row.Workload, row.Scheduler, b.Compute, b.GC, b.Scheduler, b.ShuffleDisk, b.ShuffleNet)
	}
}

// ---- Figure 8 ---------------------------------------------------------------

// Fig8Row is one workload × scheduler average-utilization entry.
type Fig8Row struct {
	Workload  string
	Scheduler string
	Util      metrics.UtilSummary
}

// Fig8Result is the Figure 8 dataset.
type Fig8Result struct {
	Rows []Fig8Row
}

// Fig8 reproduces Figure 8: average CPU user %, memory GB, network MB/s
// and disk KB/s across the cluster's nodes during LR, SQL and PR.
// Expected shape: RUPAM lowers CPU/network/disk contention but raises
// memory usage (dynamic executor sizing uses each node's full memory).
func Fig8(seed uint64) Fig8Result {
	if seed == 0 {
		seed = 1
	}
	var res Fig8Result
	for _, w := range Fig7Workloads {
		for _, sch := range []string{SchedSpark, SchedRUPAM} {
			r := Run(RunSpec{Workload: w, Scheduler: sch, Seed: seed, Spark: spark.Config{SampleInterval: 1}})
			res.Rows = append(res.Rows, Fig8Row{
				Workload:  w,
				Scheduler: sch,
				Util:      metrics.AvgUtilization(r.Trace),
			})
		}
	}
	return res
}

// Print writes the figure as a table.
func (r Fig8Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 8: average system utilization across nodes")
	fmt.Fprintf(w, "%-10s %-7s %12s %12s %12s %12s\n",
		"workload", "sched", "CPU user %", "mem (GB)", "net (MB/s)", "disk (KB/s)")
	for _, row := range r.Rows {
		u := row.Util
		fmt.Fprintf(w, "%-10s %-7s %12.1f %12.2f %12.1f %12.0f\n",
			row.Workload, row.Scheduler, u.CPUUserPct, u.MemUsedGB, u.NetMBps, u.DiskKBps)
	}
}

// ---- Figure 9 ---------------------------------------------------------------

// Fig9Result holds the cross-node utilization spread of PageRank under
// both schedulers, plus their time-averaged summaries.
type Fig9Result struct {
	Spark metrics.BalanceSeries
	RUPAM metrics.BalanceSeries

	SparkAvg, RUPAMAvg BalanceAvg
}

// BalanceAvg is the time-average of a balance series.
type BalanceAvg struct {
	CPU  float64 // stddev of CPU util, percentage points
	Net  float64 // stddev of node network rate, MB/s
	Disk float64 // stddev of node disk rate, MB/s
}

func avgBalance(b metrics.BalanceSeries) BalanceAvg {
	return BalanceAvg{
		CPU:  stats.Mean(b.CPU),
		Net:  stats.Mean(b.Net),
		Disk: stats.Mean(b.Disk),
	}
}

// Fig9 reproduces Figure 9: standard deviation of per-node utilization
// over time for PageRank. Expected shape: RUPAM keeps a lower, more
// stable spread; Spark shows spikes during the shuffle-heavy late stages.
func Fig9(seed uint64) Fig9Result {
	if seed == 0 {
		seed = 1
	}
	sampled := spark.Config{SampleInterval: 1}
	spark := Run(RunSpec{Workload: "PR", Scheduler: SchedSpark, Seed: seed, Spark: sampled})
	rupam := Run(RunSpec{Workload: "PR", Scheduler: SchedRUPAM, Seed: seed, Spark: sampled})
	res := Fig9Result{
		Spark: metrics.NodeBalance(spark.Trace),
		RUPAM: metrics.NodeBalance(rupam.Trace),
	}
	res.SparkAvg = avgBalance(res.Spark)
	res.RUPAMAvg = avgBalance(res.RUPAM)
	return res
}

// Print writes the summary and a coarse series.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 9: stddev of node utilization during PageRank (time-avg)")
	fmt.Fprintf(w, "%-7s %10s %12s %12s\n", "sched", "CPU (pp)", "net (MB/s)", "disk (MB/s)")
	fmt.Fprintf(w, "%-7s %10.1f %12.1f %12.1f\n", "spark", r.SparkAvg.CPU, r.SparkAvg.Net, r.SparkAvg.Disk)
	fmt.Fprintf(w, "%-7s %10.1f %12.1f %12.1f\n", "rupam", r.RUPAMAvg.CPU, r.RUPAMAvg.Net, r.RUPAMAvg.Disk)
	fmt.Fprintln(w, "series (every 10th sample): t  cpuSD[spark/rupam]  netSD  diskSD")
	n := len(r.Spark.Times)
	if m := len(r.RUPAM.Times); m < n {
		n = m
	}
	for i := 0; i < n; i += 10 {
		fmt.Fprintf(w, "  t=%6.1f  cpu %5.1f/%5.1f  net %7.1f/%7.1f  disk %6.1f/%6.1f\n",
			r.Spark.Times[i],
			r.Spark.CPU[i], r.RUPAM.CPU[i],
			r.Spark.Net[i], r.RUPAM.Net[i],
			r.Spark.Disk[i], r.RUPAM.Disk[i])
	}
}
