// Package task defines the unit of scheduling: tasks with
// multi-dimensional resource demand vectors, their runtime metrics (the
// right-hand side of the paper's Table I), and the stage/job/application
// structures the DAG scheduler produces. Both schedulers — default Spark
// and RUPAM — operate on these types; RUPAM additionally mines the metrics
// for its task-characteristics database.
package task

import (
	"fmt"
	"sort"

	"rupam/internal/hdfs"
)

// Kind distinguishes the two Spark task types; the paper's Algorithm 1
// seeds unseen ShuffleMapTasks into every resource queue and unseen
// ResultTasks into the network queue.
type Kind int

// Task kinds.
const (
	ShuffleMap Kind = iota // writes shuffle output for a child stage
	Result                 // computes the action's result, returned to the driver
)

// String returns the Spark class name of the kind.
func (k Kind) String() string {
	if k == ShuffleMap {
		return "ShuffleMapTask"
	}
	return "ResultTask"
}

// Demand is a task's ground-truth resource requirement vector. The
// simulator executes it; the schedulers never see it directly — RUPAM
// learns an approximation from observed Metrics, exactly as the paper's
// Task Manager does.
type Demand struct {
	// InputBytes are read from the block store (or the cache when the
	// source partition is cached on the executor).
	InputBytes int64
	// ShuffleReadBytes are fetched from parent-stage map outputs,
	// local-disk or network depending on where the maps ran.
	ShuffleReadBytes int64
	// CPUWork is compute demand in giga-cycles (seconds on a 1 GHz core).
	CPUWork float64
	// GPUWork is compute demand offloadable to an accelerator, in
	// giga-cycles. A task with GPUWork > 0 is GPU-capable: on a GPU node
	// it runs GPUWork on the accelerator; otherwise the work falls back
	// to the CPU (the OpenBLAS path).
	GPUWork float64
	// PeakMemory is the task's working set in bytes, held for the task's
	// lifetime in the executor heap.
	PeakMemory int64
	// ShuffleWriteBytes are written to the local shuffle store (map side).
	ShuffleWriteBytes int64
	// OutputBytes are sent back to the driver (result side).
	OutputBytes int64
	// CacheBytes, if positive, are stored in the executor's cache when
	// the task completes (the stage materializes a cached RDD partition).
	CacheBytes int64
	// FallbackCPUWork is the extra compute (giga-cycles) of recomputing
	// the task's cached input from lineage when the cache misses — a
	// crashed worker's lost partitions are not free to restore.
	FallbackCPUWork float64
}

// TotalComputeWork returns CPU work plus GPU work as executed on a CPU.
func (d Demand) TotalComputeWork() float64 { return d.CPUWork + d.GPUWork }

// GPUCapable reports whether the task can use an accelerator.
func (d Demand) GPUCapable() bool { return d.GPUWork > 0 }

// MetricsArena hands out Metrics in chunks. Attempt records are retained
// for the whole run (the CharDB, tracing, and the chaos fingerprint all
// read them afterwards), so they can never be recycled — but they can be
// batched: one allocation per chunk instead of one per attempt. The zero
// value is ready to use.
type MetricsArena struct {
	chunk []Metrics
	// Allocs counts chunk allocations; News counts Metrics handed out.
	// Exposed for the perf battery's steady-state accounting.
	Allocs, News uint64
}

// metricsChunk is the arena block size.
const metricsChunk = 64

// New returns a zeroed Metrics from the arena.
func (a *MetricsArena) New() *Metrics {
	if len(a.chunk) == 0 {
		a.chunk = make([]Metrics, metricsChunk)
		a.Allocs++
	}
	m := &a.chunk[0]
	a.chunk = a.chunk[1:]
	a.News++
	return m
}

// Metrics is what the framework observes about one task attempt — the
// task-side columns of Table I. RUPAM's Task Manager persists these in its
// task-characteristics database keyed by (stage, partition).
type Metrics struct {
	Executor string // node the attempt ran on
	Locality hdfs.Locality

	Launch float64 // time the attempt was handed to an executor
	Start  float64 // time execution began
	End    float64 // time the attempt finished (success or failure)

	SchedulerDelay   float64
	DeserializeTime  float64
	InputDiskTime    float64 // block-store read served from local disk
	InputNetTime     float64 // block-store or cache read served remotely
	ShuffleReadTime  float64
	ComputeTime      float64
	GCTime           float64
	ShuffleWriteTime float64
	SerializeTime    float64

	BytesReadRemote int64 // portion of input/shuffle bytes that crossed the network

	// ShuffleBytesLocal / ShuffleBytesRemote split the shuffle read by
	// fetch medium, so reporting can attribute ShuffleReadTime between
	// disk and network by byte share.
	ShuffleBytesLocal  int64
	ShuffleBytesRemote int64

	PeakMemory  int64
	UsedGPU     bool
	OOM         bool // attempt died with an out-of-memory error
	Killed      bool // attempt was terminated (straggler copy lost the race, or memory reclaim)
	FetchFailed bool // attempt died fetching shuffle data from a lost node
	Flaked      bool // attempt died of a transient node-local gray failure
}

// Duration returns wall time from launch to end.
func (m Metrics) Duration() float64 { return m.End - m.Launch }

// Succeeded reports whether the attempt ran to successful completion.
func (m Metrics) Succeeded() bool {
	return m.End > 0 && !m.OOM && !m.Killed && !m.FetchFailed && !m.Flaked
}

// State tracks a task through its lifetime.
type State int

// Task states.
const (
	Pending State = iota
	Running
	Finished
	Failed
)

// Task is one partition's worth of work in a stage.
type Task struct {
	ID      int // unique within the application
	StageID int
	Index   int // partition index within the stage
	Kind    Kind
	Demand  Demand

	// PrefNodes are the task's preferred locations (block replicas), in
	// replica order.
	PrefNodes []string
	// CachedOn, when non-empty, names the node whose executor holds the
	// task's input partition in cache — the PROCESS_LOCAL location. The
	// driver resolves it from the cache tracker at job-submission time.
	CachedOn string
	// CacheRDD, if non-zero, is the RDD whose partition this task reads
	// from cache when available; on a cache miss the executor falls back
	// to reading InputBytes from PrefNodes (lineage re-read).
	CacheRDD int

	State    State
	Attempts []*Metrics

	// SchedMark is scratch space for the scheduler whose queues hold the
	// task: a pass stamp that lets it count the task once however many
	// of its queues list it. No other code reads it.
	SchedMark uint64
}

// LocalityOn returns the best locality level the task would have on node.
func (t *Task) LocalityOn(node string) hdfs.Locality {
	if t.CachedOn == node {
		return hdfs.ProcessLocal
	}
	for _, p := range t.PrefNodes {
		if p == node {
			return hdfs.NodeLocal
		}
	}
	return hdfs.Any
}

// SuccessMetrics returns the metrics of the successful attempt, or nil.
func (t *Task) SuccessMetrics() *Metrics {
	for _, a := range t.Attempts {
		if a.Succeeded() {
			return a
		}
	}
	return nil
}

// String identifies the task for diagnostics.
func (t *Task) String() string {
	return fmt.Sprintf("task %d (stage %d, part %d, %s)", t.ID, t.StageID, t.Index, t.Kind)
}

// Stage is a set of tasks with no internal shuffle boundary.
type Stage struct {
	ID    int
	Name  string
	JobID int
	// Signature identifies the stage's computation across jobs: iteration
	// i's stage has the same signature as iteration i-1's, which is how
	// RUPAM's task-characteristics database recognizes recurring tasks
	// (the paper's §III-B2 observation that data centers re-run the same
	// applications on similar inputs).
	Signature string
	Kind      Kind
	Tasks     []*Task
	Parent    []*Stage // shuffle dependencies that must complete first

	// RDDID identifies the RDD whose partitions this stage's input comes
	// from, for cache lookups; 0 means no cacheable input.
	RDDID int
	// CacheRDDID, if non-zero, identifies the RDD this stage materializes
	// into the cache (task.Demand.CacheBytes per partition).
	CacheRDDID int

	// ShuffleOutputByNode accumulates, as map tasks finish, how many
	// shuffle bytes live on each node; child-stage tasks split their
	// shuffle reads across these locations proportionally.
	ShuffleOutputByNode map[string]int64

	// outputLoc remembers, per task index, where (and how large) the
	// task's map output was materialized, so that losing a node can be
	// translated back into the set of map tasks that must rerun.
	outputLoc map[int]shuffleLoc

	completed int
}

// shuffleLoc is one map task's materialized output location.
type shuffleLoc struct {
	node  string
	bytes int64
}

// NumTasks returns the stage's task count.
func (s *Stage) NumTasks() int { return len(s.Tasks) }

// MarkCompleted records one task completion and reports whether the stage
// is now fully complete.
func (s *Stage) MarkCompleted() bool {
	s.completed++
	return s.completed >= len(s.Tasks)
}

// Completed returns the number of completed tasks.
func (s *Stage) Completed() int { return s.completed }

// IsComplete reports whether all tasks finished.
func (s *Stage) IsComplete() bool { return s.completed >= len(s.Tasks) }

// AddShuffleOutput records bytes of map output materialized on node.
func (s *Stage) AddShuffleOutput(node string, bytes int64) {
	if s.ShuffleOutputByNode == nil {
		s.ShuffleOutputByNode = make(map[string]int64)
	}
	s.ShuffleOutputByNode[node] += bytes
}

// RecordShuffleOutput records a specific map task's output on node. A
// rerun (or a winning speculative copy on another node) overwrites the
// task's previous location — the freshest copy is the one child stages
// are told about.
func (s *Stage) RecordShuffleOutput(taskIndex int, node string, bytes int64) {
	s.AddShuffleOutput(node, bytes)
	if s.outputLoc == nil {
		s.outputLoc = make(map[int]shuffleLoc)
	}
	s.outputLoc[taskIndex] = shuffleLoc{node: node, bytes: bytes}
}

// OutputNodeOf returns the node holding taskIndex's map output, or "".
func (s *Stage) OutputNodeOf(taskIndex int) string { return s.outputLoc[taskIndex].node }

// OutputOf returns the node and size of taskIndex's materialized map
// output ("" and 0 if none is registered).
func (s *Stage) OutputOf(taskIndex int) (string, int64) {
	loc := s.outputLoc[taskIndex]
	return loc.node, loc.bytes
}

// RelocateOutput moves taskIndex's materialized map output from its
// current node to another (a graceful-drain re-replication during a spot
// grace window), keeping the per-node byte aggregates consistent so child
// stages split their shuffle reads against the new location. Returns the
// moved byte count, or ok=false when the index has no registered output,
// already lives on to, or the move would be a no-op — the drain path calls
// this from a transfer-completion callback, by which time a rerun may have
// re-registered the output elsewhere.
func (s *Stage) RelocateOutput(taskIndex int, to string) (int64, bool) {
	loc, ok := s.outputLoc[taskIndex]
	if !ok || loc.node == to || loc.bytes <= 0 {
		return 0, false
	}
	s.ShuffleOutputByNode[loc.node] -= loc.bytes
	if s.ShuffleOutputByNode[loc.node] <= 0 {
		delete(s.ShuffleOutputByNode, loc.node)
	}
	s.AddShuffleOutput(to, loc.bytes)
	s.outputLoc[taskIndex] = shuffleLoc{node: to, bytes: loc.bytes}
	return loc.bytes, true
}

// ResetShuffleOutputs forgets every materialized map output and zeroes the
// completion counter. Crash recovery uses it to rebuild the stage's output
// registry from the write-ahead log: only outputs whose success records
// were durably logged are re-registered, anything an executor wrote but
// never reported lands again through redelivered completions.
func (s *Stage) ResetShuffleOutputs() {
	s.ShuffleOutputByNode = nil
	s.outputLoc = nil
	s.completed = 0
}

// SetCompleted forces the completion counter, clamped to [0, NumTasks].
// Recovery sets it to the number of logged-finished tasks in the stage.
func (s *Stage) SetCompleted(n int) {
	if n < 0 {
		n = 0
	}
	if n > len(s.Tasks) {
		n = len(s.Tasks)
	}
	s.completed = n
}

// LoseNodeOutputs removes every map output the stage had materialized on
// node (a fail-stop loss of the node's shuffle files) and returns the
// indices of the tasks whose output is gone, in ascending order. The
// completion counter is rolled back only for outputs whose task actually
// finished: an attempt killed between its shuffle write and its success
// report leaves an output entry that was never counted, and decrementing
// for it would put the counter in permanent deficit — the stage could
// then never report complete again.
func (s *Stage) LoseNodeOutputs(node string) []int {
	var lost []int
	for idx, loc := range s.outputLoc {
		if loc.node == node {
			lost = append(lost, idx)
		}
	}
	if len(lost) == 0 {
		return nil
	}
	sort.Ints(lost)
	for _, idx := range lost {
		delete(s.outputLoc, idx)
		if t := s.TaskByIndex(idx); t != nil && t.State == Finished {
			s.completed--
		}
	}
	delete(s.ShuffleOutputByNode, node)
	if s.completed < 0 {
		s.completed = 0
	}
	return lost
}

// TaskByIndex returns the stage's task with the given partition index, or
// nil.
func (s *Stage) TaskByIndex(idx int) *Task {
	if idx >= 0 && idx < len(s.Tasks) && s.Tasks[idx].Index == idx {
		return s.Tasks[idx]
	}
	for _, t := range s.Tasks {
		if t.Index == idx {
			return t
		}
	}
	return nil
}

// Job is a DAG of stages triggered by one action.
type Job struct {
	ID     int
	Name   string
	Stages []*Stage
	Final  *Stage
}

// Application is a sequence of jobs submitted by one driver program, e.g.
// one job per iteration of an ML algorithm.
type Application struct {
	Name string
	Jobs []*Job
}

// NumTasks returns the total task count across all jobs.
func (a *Application) NumTasks() int {
	n := 0
	for _, j := range a.Jobs {
		for _, s := range j.Stages {
			n += len(s.Tasks)
		}
	}
	return n
}

// AllTasks returns every task across all jobs and stages, in definition
// order.
func (a *Application) AllTasks() []*Task {
	var ts []*Task
	for _, j := range a.Jobs {
		for _, s := range j.Stages {
			ts = append(ts, s.Tasks...)
		}
	}
	return ts
}
