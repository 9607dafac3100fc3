package experiments

import (
	"fmt"
	"io"
	"sort"

	"rupam/internal/metrics"
	"rupam/internal/spark"
	"rupam/internal/workloads"
)

// Fig2Result is the §II-B motivation study: per-second utilization of the
// two-node cluster during a 4K×4K matrix multiplication.
type Fig2Result struct {
	Trace *metrics.Trace
}

// Fig2 reproduces Figure 2: run MatMul on the two-node motivation setup
// under default Spark and record utilization. Expected shape: an early
// CPU spike, memory ramping through the middle, network bursts at the
// beginning and end (block exchange + reduce), low disk reads with write
// bursts at shuffle boundaries.
func Fig2(seed uint64) Fig2Result {
	if seed == 0 {
		seed = 1
	}
	r := Run(RunSpec{
		Workload:  "MatMul",
		Scheduler: SchedSpark,
		Cluster:   "motivation",
		Seed:      seed,
		// The block-exchange bursts last well under a second; sample fast
		// enough to catch them.
		Spark: spark.Config{SampleInterval: 0.25},
	})
	return Fig2Result{Trace: r.Trace}
}

// ClusterSeries averages the trace across the two nodes into one series
// per metric, matching the paper's single-line plots.
func (r Fig2Result) ClusterSeries() (times, cpu, memGB, netIn, netOut, diskR, diskW []float64) {
	n := r.Trace.Len()
	for i := 0; i < n; i++ {
		var c, m, ni, no, dr, dw, t float64
		for _, node := range r.Trace.Nodes {
			s := r.Trace.Series[node][i]
			t = s.Time
			c += s.CPU * 100
			m += s.MemGB
			ni += s.NetInMBps
			no += s.NetOutMBps
			dr += s.DiskReadMBps
			dw += s.DiskWriteMBps
		}
		k := float64(len(r.Trace.Nodes))
		times = append(times, t)
		cpu = append(cpu, c/k)
		memGB = append(memGB, m)
		netIn = append(netIn, ni)
		netOut = append(netOut, no)
		diskR = append(diskR, dr)
		diskW = append(diskW, dw)
	}
	return
}

// Print writes the three sub-figures as aligned columns.
func (r Fig2Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 2: resource utilization, 4Kx4K matrix multiplication (2-node)")
	fmt.Fprintf(w, "%6s %8s %8s %9s %9s %9s %9s\n",
		"t(s)", "CPU(%)", "mem(GB)", "netIn", "netOut", "diskR", "diskW")
	times, cpu, mem, ni, no, dr, dw := r.ClusterSeries()
	for i := range times {
		fmt.Fprintf(w, "%6.0f %8.1f %8.2f %9.1f %9.1f %9.1f %9.1f\n",
			times[i], cpu[i], mem[i], ni[i], no[i], dr[i], dw[i])
	}
}

// ---- Figure 3 ---------------------------------------------------------------

// Fig3Result is the per-task breakdown of PageRank on the two-node
// heterogeneous setup under default Spark.
type Fig3Result struct {
	Rows []metrics.TaskRow
}

// Fig3 reproduces Figure 3: a 2 GB PageRank on node-1 (slow CPU, fast
// network) and node-2 (fast CPU, slow network) under default Spark,
// showing intra-stage task skew and Spark's obliviousness to it — compute
// -heavy tasks land on the slow-CPU node and shuffle-heavy tasks on the
// slow-network node.
func Fig3(seed uint64) Fig3Result {
	if seed == 0 {
		seed = 1
	}
	r := Run(RunSpec{
		Workload:  "PR",
		Scheduler: SchedSpark,
		Cluster:   "motivation",
		Params:    workloads.Params{InputGB: 2, Partitions: 16, Iterations: 1},
		Seed:      seed,
	})
	rows := metrics.TaskRows(r.App)
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Executor != rows[j].Executor {
			return rows[i].Executor < rows[j].Executor
		}
		return rows[i].TaskID < rows[j].TaskID
	})
	return Fig3Result{Rows: rows}
}

// NodeCounts returns tasks per node (the paper observes an uneven 10/15
// split).
func (r Fig3Result) NodeCounts() map[string]int {
	counts := make(map[string]int)
	for _, row := range r.Rows {
		counts[row.Executor]++
	}
	return counts
}

// MaxSkew returns the ratio of the longest to the shortest task duration
// within the run (the paper observes up to ~31×... across nodes).
func (r Fig3Result) MaxSkew() float64 {
	minD, maxD := 0.0, 0.0
	for i, row := range r.Rows {
		if i == 0 || row.Duration < minD {
			minD = row.Duration
		}
		if row.Duration > maxD {
			maxD = row.Duration
		}
	}
	if minD <= 0 {
		return 0
	}
	return maxD / minD
}

// Print writes the per-task breakdown grouped by node.
func (r Fig3Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 3: PageRank task breakdown on the 2-node motivation cluster (Spark)")
	fmt.Fprintf(w, "%-8s %6s %9s %9s %11s %11s %9s\n",
		"node", "task", "compute", "shuffle", "serialize", "scheduler", "duration")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8s %6d %9.2f %9.2f %11.2f %11.2f %9.2f\n",
			row.Executor, row.TaskID, row.Compute, row.Shuffle, row.Serialize,
			row.SchedDelay, row.Duration)
	}
	fmt.Fprintf(w, "tasks per node: %v   max/min duration skew: %.1fx\n",
		r.NodeCounts(), r.MaxSkew())
}
