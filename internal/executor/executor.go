// Package executor models task execution on a node: the physical phases a
// Spark task goes through (dispatch, deserialization, input read, shuffle
// read, compute on CPU or GPU, garbage collection, cache materialization,
// shuffle write, serialization and result send), each claiming the node's
// shared simx resources so that co-located tasks contend realistically.
//
// It also owns the failure semantics the paper's evaluation leans on:
// admission beyond the heap triggers an OutOfMemory task failure, and an
// OOM can escalate to a JVM/worker crash that drops the node's cached
// partitions and takes the executor offline for a restart period — the
// source of default Spark's PageRank failures and large error bars in
// Fig 5.
package executor

import (
	"fmt"

	"rupam/internal/cluster"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/stats"
	"rupam/internal/task"
	"rupam/internal/tracing"
)

// Outcome is the terminal state of one task attempt.
type Outcome int

// Attempt outcomes.
const (
	Success     Outcome = iota
	OOM                 // attempt failed with an out-of-memory error
	Killed              // attempt was terminated by the scheduler or a worker crash
	Lost                // attempt vanished with its executor (fail-stop node loss)
	FetchFailed         // attempt could not fetch shuffle data from a lost node
	Flaked              // attempt hit a transient node-local fault (gray failure)
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case OOM:
		return "oom"
	case Lost:
		return "lost"
	case FetchFailed:
		return "fetch-failed"
	case Flaked:
		return "flaked"
	default:
		return "killed"
	}
}

// Config holds the per-executor parameters of the execution model; the
// fixed ones are the constants below. Schedulers set HeapBytes (the
// paper's static 14 GB for default Spark, per-node dynamic for RUPAM).
type Config struct {
	// HeapBytes is the executor's JVM heap, carved from node memory.
	HeapBytes int64
	// DriverNode receives result-task output flows.
	DriverNode string
	// RelocateCacheOnRemoteRead moves a cached partition to the reading
	// node after a remote cache fetch. Stock Spark leaves blocks where
	// they were computed; RUPAM's task migration carries the partition
	// along so the next iteration is PROCESS_LOCAL on the better node.
	RelocateCacheOnRemoteRead bool
	// Seed drives the executor's failure randomness.
	Seed uint64
	// Tracer, when non-nil, records attempt lifecycle and phase boundaries.
	Tracer *tracing.Collector
}

// The execution model's fixed physical constants.
const (
	// dispatchDelay is the fixed scheduling/shipping latency per task.
	dispatchDelay float64 = 0.04
	// serCPUPerByte is serialization compute cost in giga-cycles/byte.
	serCPUPerByte float64 = 2e-9
	// gcFactor scales garbage-collection time: seconds of GC per GB of
	// allocation churn at the reference heap pressure.
	gcFactor float64 = 0.8
	// evictGCPerGB is extra GC seconds per GB of cache evicted to admit a
	// task (the LRU-management overhead of §IV-D).
	evictGCPerGB float64 = 0.4
	// oomRunFraction is how far through its compute estimate a doomed
	// task gets before the allocation fails.
	oomRunFraction float64 = 0.5
	// storageFraction of the heap is usable by the RDD cache
	// (spark.memory.storageFraction).
	storageFraction float64 = 0.5
	// workerCrashProb is the probability an OOM kills the whole JVM.
	workerCrashProb float64 = 0.55
	// restartDelay is worker recovery time after a crash, in seconds.
	restartDelay float64 = 30
)

// Executor runs tasks on one node.
type Executor struct {
	eng   *simx.Engine
	clu   *cluster.Cluster
	node  *cluster.Node
	cfg   Config
	heap  *simx.Space
	cache *CacheTracker
	rng   *stats.Rand

	peers map[string]*Executor // all executors by node, for remote reads

	running     []*Run // in-flight attempts in launch order
	down        bool
	failStopped bool

	// memPressure is the gray-failure heap squeeze: the effective heap is
	// memPressure × nominal for GC-cost purposes (1 = no squeeze). No
	// allocation fails — the executor just collects garbage harder.
	memPressure float64
	// flakeProb is the probability an attempt started now dies with a
	// transient Flaked failure (0 = healthy). The failure RNG is consulted
	// only while non-zero, so fault-free runs stay byte-identical.
	flakeProb float64

	// metricsArena batches attempt-Metrics allocation; runArena batches
	// Run allocation. Both are append-only within a run (handles escape
	// to the driver, CharDB and tracing), so batching is safe and
	// recycling is deliberately not attempted.
	metricsArena task.MetricsArena
	runArena     []Run

	// shuffle-read scratch, reused across readShuffle calls (the section
	// using them is synchronous, so per-executor reuse is safe).
	shuffleByNode map[string]int64
	shuffleNodes  []string

	// reserved is memory promised to launched-but-not-yet-started
	// attempts; schedulers that admit by memory fit consult
	// ProjectedFree so a burst of simultaneous launches cannot
	// over-commit the heap before any allocation lands.
	reserved int64

	// OnRestart, if set, is invoked when the executor comes back after a
	// crash; schedulers use it to resume offers.
	OnRestart func()

	// Counters for reporting.
	OOMs      int
	Crashes   int
	FailStops int
	Flakes    int

	// Incarnation counts fail-stop recoveries. Real Spark sees a restarted
	// worker as a brand-new executor ID registering; the driver compares
	// incarnations across heartbeats to catch a crash+restart cycle shorter
	// than the heartbeat timeout, whose attempt deaths were silent.
	Incarnation int
}

// New creates an executor on node with the given heap size, registering it
// in peers (shared by all executors of a run). The heap is clamped to the
// node's free memory.
func New(eng *simx.Engine, clu *cluster.Cluster, node *cluster.Node, cache *CacheTracker,
	peers map[string]*Executor, cfg Config) *Executor {
	if cfg.HeapBytes <= 0 {
		panic(fmt.Sprintf("executor: node %s: non-positive heap", node.Name()))
	}
	if cfg.HeapBytes > node.Mem.Free() {
		cfg.HeapBytes = node.Mem.Free()
	}
	node.Mem.ForceAlloc(cfg.HeapBytes)
	ex := &Executor{
		eng:         eng,
		clu:         clu,
		node:        node,
		cfg:         cfg,
		heap:        simx.NewSpace(node.Name()+"/heap", cfg.HeapBytes),
		cache:       cache,
		rng:         stats.NewRand(cfg.Seed ^ hashName(node.Name())),
		peers:       peers,
		memPressure: 1,
	}
	peers[node.Name()] = ex
	return ex
}

func hashName(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Node returns the executor's node.
func (ex *Executor) Node() *cluster.Node { return ex.node }

// Heap returns the executor's heap space.
func (ex *Executor) Heap() *simx.Space { return ex.heap }

// HeapFree returns the executor's free heap bytes.
func (ex *Executor) HeapFree() int64 { return ex.heap.Free() }

// ProjectedFree returns free heap bytes minus reservations of launched
// attempts that have not yet allocated.
func (ex *Executor) ProjectedFree() int64 { return ex.heap.Free() - ex.reserved }

// SetMemPressure sets the gray-failure heap squeeze: GC cost is charged
// as if the heap were f × nominal. f = 1 (or anything non-positive)
// restores the healthy state. Fault injection drives this; nothing else
// should.
func (ex *Executor) SetMemPressure(f float64) {
	if f <= 0 || f > 1 {
		f = 1
	}
	ex.memPressure = f
}

// SetFlakeProb sets the probability that an attempt started on this node
// dies with a transient Flaked failure. 0 restores the healthy state.
func (ex *Executor) SetFlakeProb(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	ex.flakeProb = p
}

// Down reports whether the executor is offline after a crash.
func (ex *Executor) Down() bool { return ex.down }

// FailStopped reports whether the executor's node is fail-stopped: unlike
// an OOM-induced JVM restart (where the machine keeps heartbeating), a
// fail-stopped node is silent until it recovers.
func (ex *Executor) FailStopped() bool { return ex.failStopped }

// FailStop takes the whole node down at once: every running attempt dies
// with it (unreported — the driver only learns via heartbeat timeout),
// cached partitions and shuffle files are gone, and the executor stays
// offline for recoverAfter seconds (<= 0 means it never comes back).
func (ex *Executor) FailStop(recoverAfter float64) {
	if ex.failStopped {
		return
	}
	ex.failStopped = true
	ex.down = true
	ex.FailStops++
	for _, r := range ex.Running() {
		r.Kill(false)
	}
	if lost := ex.cache.DropNode(ex.node.Name()); lost > 0 {
		ex.heap.Release(lost)
	}
	if recoverAfter > 0 {
		ex.eng.Schedule(recoverAfter, func() {
			if !ex.failStopped {
				// Reactivate already brought the node back (the elastic
				// substrate re-acquired it before this crash's recovery
				// timer fired); a second restart would double-count an
				// incarnation.
				return
			}
			ex.failStopped = false
			ex.down = false
			ex.Incarnation++
			if ex.OnRestart != nil {
				ex.OnRestart()
			}
		})
	}
}

// Reactivate brings a fail-stopped executor back immediately — the elastic
// substrate re-acquiring a previously preempted (or released) instance.
// The machine returns empty: a fresh incarnation with nothing running, no
// cache and a clean heap, and the driver sees the new incarnation's first
// heartbeat exactly like a fail-stop recovery. A no-op on a live executor.
func (ex *Executor) Reactivate() {
	if !ex.failStopped {
		return
	}
	ex.failStopped = false
	ex.down = false
	ex.Incarnation++
	if ex.OnRestart != nil {
		ex.OnRestart()
	}
}

// RunningTasks returns the number of in-flight task attempts.
func (ex *Executor) RunningTasks() int { return len(ex.running) }

// Running returns a copy of the in-flight runs in launch order, so the
// caller may kill runs while iterating.
func (ex *Executor) Running() []*Run {
	return append([]*Run(nil), ex.running...)
}

// RunningView returns the in-flight runs in launch order without copying.
// The slice is the executor's own: callers may only read it, and must not
// launch or kill runs while iterating it (use Running for that).
func (ex *Executor) RunningView() []*Run { return ex.running }

// Options controls one task attempt.
type Options struct {
	// Locality is the level the scheduler assigned (recorded in metrics
	// and used to decide local vs remote input reads).
	Locality hdfs.Locality
	// Speculative marks the attempt as a speculative copy.
	Speculative bool
}

// Launch begins executing an attempt of t (whose stage is st) and returns
// its Run handle. onDone fires exactly once with the terminal outcome,
// unless the run is killed with notify=false. Launching on a downed
// executor panics — schedulers must not offer downed nodes.
func (ex *Executor) Launch(t *task.Task, st *task.Stage, opts Options, onDone func(*Run, Outcome)) *Run {
	if ex.down {
		panic("executor: launch on downed executor " + ex.node.Name())
	}
	m := ex.metricsArena.New()
	*m = task.Metrics{
		Executor: ex.node.Name(),
		Locality: opts.Locality,
		Launch:   ex.eng.Now(),
	}
	t.Attempts = append(t.Attempts, m)
	if len(ex.runArena) == 0 {
		ex.runArena = make([]Run, 16)
	}
	r := &ex.runArena[0]
	ex.runArena = ex.runArena[1:]
	*r = Run{ex: ex, t: t, st: st, m: m, opts: opts, onDone: onDone}
	r.tr = ex.cfg.Tracer.AttemptStarted(t, st, ex.node.Name(), opts.Locality.String(), opts.Speculative)
	r.reservedMem = t.Demand.PeakMemory
	ex.reserved += r.reservedMem
	ex.running = append(ex.running, r)
	r.armTimer(dispatchDelay, r.start)
	return r
}
