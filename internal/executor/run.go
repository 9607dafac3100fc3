package executor

import (
	"slices"
	"sort"

	"rupam/internal/netsim"
	"rupam/internal/simx"
	"rupam/internal/task"
	"rupam/internal/tracing"
)

// ResetRunSeq does nothing. It reset a process-global run counter that
// nothing read; it stays only because benchmark/workloads.go still calls
// it.
func ResetRunSeq() {}

// Run is one in-flight task attempt: a small state machine whose phases
// claim node resources and chain via completion callbacks.
type Run struct {
	ex     *Executor
	t      *task.Task
	st     *task.Stage
	m      *task.Metrics
	opts   Options
	onDone func(*Run, Outcome)
	tr     *tracing.AttemptTrace // nil when tracing is disabled

	memHeld     int64
	reservedMem int64 // returned to the executor when execution starts
	gpuHeld     bool
	extraGC     float64 // eviction-induced GC added during admission
	extraCPU    float64 // lineage-recompute work added on a cache miss
	phaseStart  float64

	// live references for cancellation
	claims []*simx.Claim
	flows  []*netsim.Flow
	timer  simx.Timer

	// fetchSrcs names the remote nodes the in-progress shuffle read is
	// streaming from; cleared when the phase completes. The driver uses it
	// to fail attempts whose fetch source just died.
	fetchSrcs []string

	pending int // barrier counter for parallel transfers
	done    bool
}

// Task returns the task being attempted.
func (r *Run) Task() *task.Task { return r.t }

// Stage returns the task's stage.
func (r *Run) Stage() *task.Stage { return r.st }

// Metrics returns the attempt's metrics (live; fields fill in as phases
// complete).
func (r *Run) Metrics() *task.Metrics { return r.m }

// Speculative reports whether this attempt is a speculative copy.
func (r *Run) Speculative() bool { return r.opts.Speculative }

// Done reports whether the attempt has reached a terminal state.
func (r *Run) Done() bool { return r.done }

// Executor returns the executor running the attempt.
func (r *Run) Executor() *Executor { return r.ex }

// armTimer schedules fn after delay, tracking the timer for cancellation.
func (r *Run) armTimer(delay float64, fn func()) {
	r.timer = r.ex.eng.Schedule(delay, func() {
		r.timer = simx.Timer{}
		if !r.done {
			fn()
		}
	})
}

// claimCPU acquires CPU work, tracking the claim.
func (r *Run) claimCPU(work float64, then func()) {
	c := r.ex.node.CPU.Acquire(work, func() {
		if !r.done {
			then()
		}
	})
	r.claims = append(r.claims, c)
}

// claimDisk acquires disk bandwidth on res, tracking the claim.
func (r *Run) claimDisk(res *simx.PSResource, bytes int64, then func()) {
	c := res.Acquire(float64(bytes), func() {
		if !r.done {
			then()
		}
	})
	r.claims = append(r.claims, c)
}

// startFlow begins a network transfer, tracking the flow.
func (r *Run) startFlow(src, dst string, bytes int64, then func()) {
	f := r.ex.clu.Net.Start(src, dst, float64(bytes), func() {
		if !r.done {
			then()
		}
	})
	r.flows = append(r.flows, f)
}

// barrier decrements the parallel-transfer counter and calls then when it
// reaches zero.
func (r *Run) barrier(then func()) func() {
	return func() {
		r.pending--
		if r.pending == 0 && !r.done {
			then()
		}
	}
}

// ---- phase 1: start & memory admission -------------------------------

func (r *Run) start() {
	r.dropReservation()
	now := r.ex.eng.Now()
	r.m.Start = now
	r.m.SchedulerDelay = now - r.m.Launch
	r.m.PeakMemory = r.t.Demand.PeakMemory

	// Gray failure: inside a TaskFlake window each attempt may be doomed
	// to a transient failure. The RNG is consulted only while a window is
	// open, so fault-free runs never touch it.
	if r.ex.flakeProb > 0 && r.ex.rng.Float64() < r.ex.flakeProb {
		r.flakeLater()
		return
	}

	need := r.t.Demand.PeakMemory
	heap := r.ex.heap
	if heap.Free() < need {
		// Unified memory: evict cached partitions to make room, at a GC
		// cost (LRU management, §IV-D).
		reclaimed := r.ex.evictCache(need - heap.Free())
		r.extraGC += evictGCPerGB * float64(reclaimed) / 1e9
	}
	if heap.Free() < need {
		// The allocation cannot succeed: the attempt is doomed to OOM
		// partway through execution.
		r.oomLater()
		return
	}
	heap.ForceAlloc(need)
	r.memHeld = need
	r.deserialize()
}

// oomLater lets the doomed attempt burn CPU for a while, then fails it
// with an OutOfMemory error, possibly crashing the worker.
func (r *Run) oomLater() {
	r.tr.Phase("oom-doomed")
	d := r.t.Demand
	est := d.TotalComputeWork() / r.ex.node.Spec.FreqGHz
	delay := oomRunFraction*est + 0.5
	r.claimCPU(delay*r.ex.node.Spec.FreqGHz, func() {
		r.m.OOM = true
		r.ex.OOMs++
		crash := r.ex.rng.Float64() < workerCrashProb
		r.finish(OOM)
		if crash {
			r.ex.crash()
		}
	})
}

// flakeLater lets the doomed attempt burn CPU for a while, then fails it
// with a transient Flaked error — no memory was admitted, no worker
// crashes; the driver just sees a failed attempt to retry elsewhere.
func (r *Run) flakeLater() {
	r.tr.Phase("flake-doomed")
	d := r.t.Demand
	est := d.TotalComputeWork() / r.ex.node.Spec.FreqGHz
	delay := 0.25*est + 0.2
	r.claimCPU(delay*r.ex.node.Spec.FreqGHz, func() {
		r.m.Flaked = true
		r.ex.Flakes++
		r.finish(Flaked)
	})
}

// evictCache reclaims up to need bytes of cached partitions on this node,
// releasing them from the heap. It returns the bytes reclaimed.
func (ex *Executor) evictCache(need int64) int64 {
	reclaimed := ex.cache.EvictLRU(ex.node.Name(), need)
	if reclaimed > 0 {
		ex.heap.Release(reclaimed)
	}
	return reclaimed
}

// ReclaimCache evicts up to need bytes of this node's cached partitions,
// returning the bytes reclaimed (RUPAM's pre-kill memory relief).
func (ex *Executor) ReclaimCache(need int64) int64 {
	if need <= 0 {
		return 0
	}
	return ex.evictCache(need)
}

// crash takes the executor offline: every running attempt is killed, the
// node's cached partitions are lost, and the executor restarts after
// restartDelay.
func (ex *Executor) crash() {
	if ex.down {
		return
	}
	ex.down = true
	ex.Crashes++
	for _, r := range ex.Running() {
		r.Kill(true)
	}
	if lost := ex.cache.DropNode(ex.node.Name()); lost > 0 {
		ex.heap.Release(lost)
	}
	ex.eng.Schedule(restartDelay, func() {
		if ex.failStopped {
			return // the node fail-stopped meanwhile; its recovery governs
		}
		ex.down = false
		if ex.OnRestart != nil {
			ex.OnRestart()
		}
	})
}

// ---- phase 2: deserialization -----------------------------------------

func (r *Run) deserialize() {
	r.tr.Phase("deserialize")
	r.phaseStart = r.ex.eng.Now()
	d := r.t.Demand
	work := serCPUPerByte * float64(d.InputBytes+d.ShuffleReadBytes)
	r.claimCPU(work, func() {
		r.m.DeserializeTime = r.ex.eng.Now() - r.phaseStart
		r.readInput()
	})
}

// ---- phase 3: input read ----------------------------------------------

func (r *Run) readInput() {
	d := r.t.Demand
	if d.InputBytes == 0 {
		r.readShuffle()
		return
	}
	r.tr.Phase("input-read")
	r.phaseStart = r.ex.eng.Now()
	me := r.ex.node.Name()

	// Cached input: PROCESS_LOCAL hit is a memory read; a hit on another
	// node streams over the network; a miss falls back to a lineage
	// re-read from the root dataset replicas below.
	if r.t.CacheRDD != 0 {
		key := CacheKey{RDD: r.t.CacheRDD, Partition: r.t.Index}
		node, ok := r.ex.cache.Lookup(key)
		if !ok {
			// Cache miss (evicted or lost in a crash): the partition is
			// rebuilt from lineage — re-read below plus recompute work.
			r.extraCPU += d.FallbackCPUWork
		}
		if ok {
			r.ex.cache.Touch(key, r.ex.eng.Now())
			if node == me {
				r.ex.eng.Schedule(0, func() {
					if !r.done {
						r.readShuffle()
					}
				})
				return
			}
			r.pending = 1
			r.m.BytesReadRemote += d.InputBytes
			r.startFlow(node, me, d.InputBytes, func() {
				if r.ex.cfg.RelocateCacheOnRemoteRead {
					// Block relocation: the partition follows the task,
					// so a migrated task is PROCESS_LOCAL on its new node
					// next iteration (RUPAM only; stock Spark leaves the
					// block where it was computed).
					r.ex.adoptCachedBlock(key, d.InputBytes)
				}
				r.inputDone(true)()
			})
			return
		}
	}

	// Block-store read: local disk when a replica (or the fallback) is
	// here, otherwise stream from the first replica, whose disk is read
	// concurrently with the transfer (the slower of the two bounds the
	// phase, approximating a pipelined remote read).
	for _, p := range r.t.PrefNodes {
		if p == me {
			r.pending = 1
			r.claimDisk(r.ex.node.DiskRead, d.InputBytes, r.inputDone(false))
			return
		}
	}
	if len(r.t.PrefNodes) == 0 {
		// No known location (synthetic input): charge a local read.
		r.pending = 1
		r.claimDisk(r.ex.node.DiskRead, d.InputBytes, r.inputDone(false))
		return
	}
	src := r.t.PrefNodes[0]
	r.m.BytesReadRemote += d.InputBytes
	r.pending = 1
	if peer := r.ex.peers[src]; peer != nil {
		r.pending = 2
		r.claimDisk(peer.node.DiskRead, d.InputBytes, r.inputDone(true))
	}
	r.startFlow(src, me, d.InputBytes, r.inputDone(true))
}

// inputDone wraps the barrier and records input-read time by medium.
func (r *Run) inputDone(remote bool) func() {
	return r.barrier(func() {
		dt := r.ex.eng.Now() - r.phaseStart
		if remote {
			r.m.InputNetTime = dt
		} else {
			r.m.InputDiskTime = dt
		}
		r.readShuffle()
	})
}

// adoptCachedBlock moves a cached partition to this executor after a
// remote cache read, when storage memory allows.
func (ex *Executor) adoptCachedBlock(key CacheKey, bytes int64) {
	storageCap := int64(storageFraction * float64(ex.heap.Capacity()))
	if bytes > storageCap {
		return
	}
	oldNode, oldBytes, ok := ex.cache.Remove(key)
	if !ok {
		return
	}
	if peer := ex.peers[oldNode]; peer != nil {
		peer.heap.Release(oldBytes)
	}
	used := ex.cache.NodeBytes(ex.node.Name())
	if used+bytes > storageCap {
		ex.evictCache(used + bytes - storageCap)
	}
	if ex.heap.Free() < bytes {
		ex.evictCache(bytes - ex.heap.Free())
	}
	if ex.heap.Free() >= bytes {
		ex.heap.ForceAlloc(bytes)
		ex.cache.Insert(key, ex.node.Name(), bytes, ex.eng.Now())
	}
}

// ---- phase 4: shuffle read ----------------------------------------------

// readShuffle fetches the task's share of every parent stage's map output:
// the portion that happens to live on this node comes off local disk, the
// rest arrives as one network flow per source node (with the source's disk
// claimed concurrently).
func (r *Run) readShuffle() {
	d := r.t.Demand
	if d.ShuffleReadBytes == 0 {
		r.compute()
		return
	}
	r.tr.Phase("shuffle-read")
	r.phaseStart = r.ex.eng.Now()
	me := r.ex.node.Name()

	// Aggregate parent map outputs by node, into per-executor scratch —
	// this section is synchronous, so the reuse cannot interleave.
	if r.ex.shuffleByNode == nil {
		r.ex.shuffleByNode = make(map[string]int64)
	}
	byNode := r.ex.shuffleByNode
	for n := range byNode {
		delete(byNode, n)
	}
	var total int64
	for _, p := range r.st.Parent {
		for n, b := range p.ShuffleOutputByNode {
			byNode[n] += b
			total += b
		}
	}
	if total == 0 {
		// Parents produced no shuffle data (degenerate stage): nothing
		// to fetch.
		r.compute()
		return
	}
	nodes := r.ex.shuffleNodes[:0]
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	r.ex.shuffleNodes = nodes

	done := func() {
		r.fetchSrcs = nil
		r.m.ShuffleReadTime = r.ex.eng.Now() - r.phaseStart
		r.compute()
	}
	barrier := r.barrier(done)
	shareOf := func(n string) int64 {
		return int64(float64(d.ShuffleReadBytes) * float64(byNode[n]) / float64(total))
	}

	// One network re-rate serves the whole fetch wave: the flows start
	// under a hold released right after the last of them, before that
	// source's disk claim, so the completion timer lands where re-rating
	// at every start would have put it (see netsim.Network.Hold).
	lastRemote := -1
	for i, n := range nodes {
		if n != me && shareOf(n) > 0 {
			lastRemote = i
		}
	}
	network := r.ex.clu.Net
	if lastRemote >= 0 {
		network.Hold()
	}

	r.pending = 1 // guard against zero-byte splits completing synchronously
	for i, n := range nodes {
		share := shareOf(n)
		if share <= 0 {
			continue
		}
		if n == me {
			r.m.ShuffleBytesLocal += share
			r.pending++
			r.claimDisk(r.ex.node.DiskRead, share, barrier)
			continue
		}
		r.m.BytesReadRemote += share
		r.m.ShuffleBytesRemote += share
		r.pending++
		r.fetchSrcs = append(r.fetchSrcs, n)
		r.startFlow(n, me, share, barrier)
		if i == lastRemote {
			network.Release()
		}
		if peer := r.ex.peers[n]; peer != nil {
			r.pending++
			r.claimDisk(peer.node.DiskRead, share, barrier)
		}
	}
	// Release the guard.
	r.ex.eng.Schedule(0, func() {
		if !r.done {
			barrier()
		}
	})
}

// ---- phase 5: compute (CPU or GPU) ---------------------------------------

func (r *Run) compute() {
	r.phaseStart = r.ex.eng.Now()
	d := r.t.Demand
	useGPU := d.GPUCapable() && r.ex.node.GPU.TryAcquire()
	if useGPU {
		r.tr.Phase("compute-gpu")
		r.gpuHeld = true
		r.m.UsedGPU = true
		// Non-offloadable work on the CPU first, then the kernel on the
		// accelerator (held exclusively).
		r.claimCPU(d.CPUWork+r.extraCPU, func() {
			r.armTimer(d.GPUWork/r.ex.node.Spec.GPURateGHz, func() {
				r.m.ComputeTime = r.ex.eng.Now() - r.phaseStart
				r.garbageCollect()
			})
		})
		return
	}
	r.tr.Phase("compute")
	r.claimCPU(d.TotalComputeWork()+r.extraCPU, func() {
		r.m.ComputeTime = r.ex.eng.Now() - r.phaseStart
		r.garbageCollect()
	})
}

// ---- phase 6: garbage collection ------------------------------------------

// garbageCollect charges JVM GC proportional to the attempt's allocation
// churn, superlinear in heap pressure: a nearly-full heap forces frequent
// full collections over the whole space (§IV-D's SQL-under-RUPAM effect),
// while a roomy heap absorbs churn cheaply.
func (r *Run) garbageCollect() {
	r.phaseStart = r.ex.eng.Now()
	d := r.t.Demand
	heap := r.ex.heap
	// A MemPressure window shrinks the effective heap to memPressure ×
	// nominal: the same live bytes read as proportionally higher pressure
	// (division by the healthy value 1 is exact, preserving byte-identity
	// of unfaulted runs).
	pressure := heap.Utilization() / r.ex.memPressure
	if pressure > 0.95 {
		pressure = 0.95
	}
	churnGB := float64(d.PeakMemory+d.InputBytes+d.ShuffleReadBytes+d.ShuffleWriteBytes) / 1e9
	gcSec := gcFactor*churnGB*(pressure*pressure)/(1-pressure) + r.extraGC
	if gcSec <= 0 {
		r.cacheInsert()
		return
	}
	r.tr.Phase("gc")
	// GC burns CPU on the node.
	r.claimCPU(gcSec*r.ex.node.Spec.FreqGHz, func() {
		r.m.GCTime = r.ex.eng.Now() - r.phaseStart
		r.cacheInsert()
	})
}

// ---- phase 7: cache materialization ----------------------------------------

func (r *Run) cacheInsert() {
	d := r.t.Demand
	if d.CacheBytes > 0 {
		ex := r.ex
		key := CacheKey{RDD: r.st.CacheRDDID, Partition: r.t.Index}
		// A re-materialization displaces the old copy (possibly on another
		// node, when the task migrated); release that heap first.
		if oldNode, oldBytes, ok := ex.cache.Remove(key); ok {
			if peer := ex.peers[oldNode]; peer != nil {
				peer.heap.Release(oldBytes)
			}
		}
		storageCap := int64(storageFraction * float64(ex.heap.Capacity()))
		if d.CacheBytes <= storageCap {
			used := ex.cache.NodeBytes(ex.node.Name())
			if used+d.CacheBytes > storageCap {
				ex.evictCache(used + d.CacheBytes - storageCap)
			}
			if ex.heap.Free() < d.CacheBytes {
				ex.evictCache(d.CacheBytes - ex.heap.Free())
			}
			if ex.heap.Free() >= d.CacheBytes {
				ex.heap.ForceAlloc(d.CacheBytes)
				ex.cache.Insert(key, ex.node.Name(), d.CacheBytes, ex.eng.Now())
			}
		}
	}
	r.writeShuffle()
}

// ---- phase 8: shuffle write ---------------------------------------------

func (r *Run) writeShuffle() {
	d := r.t.Demand
	if d.ShuffleWriteBytes == 0 {
		r.serialize()
		return
	}
	r.tr.Phase("shuffle-write")
	r.phaseStart = r.ex.eng.Now()
	r.claimDisk(r.ex.node.DiskWrite, d.ShuffleWriteBytes, func() {
		r.m.ShuffleWriteTime = r.ex.eng.Now() - r.phaseStart
		r.st.RecordShuffleOutput(r.t.Index, r.ex.node.Name(), d.ShuffleWriteBytes)
		r.serialize()
	})
}

// ---- phase 9: serialization & result send ---------------------------------

func (r *Run) serialize() {
	r.tr.Phase("serialize")
	r.phaseStart = r.ex.eng.Now()
	d := r.t.Demand
	work := serCPUPerByte * float64(d.ShuffleWriteBytes+d.OutputBytes)
	r.claimCPU(work, func() {
		if d.OutputBytes > 0 && r.ex.cfg.DriverNode != "" {
			r.startFlow(r.ex.node.Name(), r.ex.cfg.DriverNode, d.OutputBytes, func() {
				r.m.SerializeTime = r.ex.eng.Now() - r.phaseStart
				r.finish(Success)
			})
			return
		}
		r.m.SerializeTime = r.ex.eng.Now() - r.phaseStart
		r.finish(Success)
	})
}

// ---- terminal states -------------------------------------------------------

// finish releases all held resources, stamps the metrics, and reports the
// outcome exactly once.
func (r *Run) finish(o Outcome) {
	if r.done {
		return
	}
	r.done = true
	r.release()
	r.m.End = r.ex.eng.Now()
	r.tr.Finish(o.String())
	if i := slices.Index(r.ex.running, r); i >= 0 {
		r.ex.running = slices.Delete(r.ex.running, i, i+1)
	}
	if r.onDone != nil {
		cb := r.onDone
		r.onDone = nil
		cb(r, o)
	}
}

// FetchingFrom reports whether the attempt's in-progress shuffle read is
// streaming from node.
func (r *Run) FetchingFrom(node string) bool {
	for _, s := range r.fetchSrcs {
		if s == node {
			return true
		}
	}
	return false
}

// RedirectFetch re-targets the attempt's in-flight shuffle read from a
// dying source to a peer that holds re-replicated copies of its blocks:
// each active flow from the old node is cancelled and its untransferred
// remainder restarted from the new home, keeping the completion barrier
// intact. Reports whether any flow was redirected.
func (r *Run) RedirectFetch(from, to string) bool {
	if r.done || from == to {
		return false
	}
	r.ex.clu.Net.Sync()
	moved := false
	for i, f := range r.flows {
		if f.Done() || f.Src() != from {
			continue
		}
		if nf := r.ex.clu.Net.Redirect(f, to); nf != nil {
			r.flows[i] = nf
		}
	}
	// Rewriting fetchSrcs covers the flow that already delivered its bytes
	// while the barrier still waits on other transfers: those bytes are
	// safely local, so the read no longer depends on the dying node.
	for i, s := range r.fetchSrcs {
		if s == from {
			r.fetchSrcs[i] = to
			moved = true
		}
	}
	return moved
}

// FailFetch terminates the attempt with a FetchFailed outcome — its
// shuffle-read source died and the map output it was fetching is gone.
// The onDone callback fires with FetchFailed.
func (r *Run) FailFetch() {
	if r.done {
		return
	}
	r.m.FetchFailed = true
	r.finish(FetchFailed)
}

// Kill terminates the attempt (speculative loser, memory-straggler
// reclaim, or worker crash). If notify is true the onDone callback fires
// with Killed; otherwise the attempt ends silently.
func (r *Run) Kill(notify bool) {
	if r.done {
		return
	}
	r.m.Killed = true
	if !notify {
		r.onDone = nil
	}
	r.finish(Killed)
}

// dropReservation returns the launch-time memory promise.
func (r *Run) dropReservation() {
	if r.reservedMem > 0 {
		r.ex.reserved -= r.reservedMem
		r.reservedMem = 0
	}
}

// release cancels outstanding claims/flows/timers and returns held memory
// and accelerator tokens.
func (r *Run) release() {
	r.dropReservation()
	r.timer.Cancel()
	r.timer = simx.Timer{}
	for _, c := range r.claims {
		c.Cancel()
	}
	r.claims = nil
	// One re-rate for the whole kill, as for a fetch wave's starts.
	network, held := r.ex.clu.Net, len(r.flows) > 1
	if held {
		network.Hold()
	}
	for _, f := range r.flows {
		network.Cancel(f)
	}
	if held {
		network.Release()
	}
	r.flows = nil
	r.fetchSrcs = nil
	if r.memHeld > 0 {
		r.ex.heap.Release(r.memHeld)
		r.memHeld = 0
	}
	if r.gpuHeld {
		r.ex.node.GPU.Release()
		r.gpuHeld = false
	}
}
