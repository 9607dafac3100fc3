package core

import (
	"fmt"
	"sort"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/hdfs"
	"rupam/internal/monitor"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/tracing"
	"rupam/internal/wal"
)

// Config tunes RUPAM. The zero value takes the paper's defaults; the
// Disable* switches exist for the ablation benchmarks.
type Config struct {
	// ResFactor is Algorithm 1's sensitivity threshold: a task is
	// compute-bound if computeTime > ResFactor × max(shuffleRead,
	// shuffleWrite), and network-bound if shuffleRead > ResFactor ×
	// shuffleWrite (paper example: 2).
	ResFactor float64

	// Ablation switches.
	DisableLocking  bool // no best-node pinning
	DisableMemAware bool // no memory-fit check, no dynamic heap, no mem stragglers
	DisableRR       bool // drain resource queues in fixed order instead of round-robin
	DisableGPURace  bool // GPU tasks wait for GPU nodes; no dual-version copies
}

// RUPAM's fixed parameters.
const (
	// reserveBytes is left to the OS when sizing each node's executor
	// heap (dynamic executor sizing, §III-C2).
	reserveBytes = 2 * cluster.GB
	// lockAfterRuns pins a task to its best-observed node after this many
	// successful observations (§III-C1's locking; Algorithm 2's strict
	// all-five-resources condition also locks).
	lockAfterRuns = 3
	// lockTimeout unpins a locked task that has waited this long for its
	// preferred node, preventing starvation.
	lockTimeout float64 = 5
	// overcommitFactor bounds running tasks per node at factor × cores
	// when over-committing idle resources (§III-C2).
	overcommitFactor float64 = 1.3
	// utilThreshold is the utilization above which a node stops being
	// offered for that resource dimension.
	utilThreshold float64 = 0.9
	// lowMemFrac triggers memory-straggler reclamation when a node's free
	// heap falls below this fraction (§III-C3).
	lowMemFrac float64 = 0.05
	// gpuRaceMinRun is how long a GPU-capable task must have run on a CPU
	// before a racing copy is considered for an idle GPU node.
	gpuRaceMinRun float64 = 2
	// unknownPatience is how long an uncharacterized task holds out for
	// its preferred (data-local) nodes before any node may take it.
	unknownPatience float64 = 4
)

func (c Config) withDefaults() Config {
	if c.ResFactor == 0 {
		c.ResFactor = 2
	}
	return c
}

// nodeOffer is one entry in a resource queue: a node ready to run a task
// of that dimension. Offers order the paper's way — capacity/capability
// descending first, utilization ascending second — so the most capable
// node always wins while it still accepts work.
type nodeOffer struct {
	node string
	cap  float64 // static capability for the dimension
	util float64 // current utilization of the dimension
	seq  uint64
}

// better reports whether offer a should be dequeued before b.
func (a nodeOffer) better(b nodeOffer) bool {
	if a.cap != b.cap {
		return a.cap > b.cap
	}
	if a.util != b.util {
		return a.util < b.util
	}
	return a.seq < b.seq
}

// RUPAM is the scheduler. It implements spark.Scheduler.
type RUPAM struct {
	cfg Config
	rt  *spark.Runtime
	db  *CharDB

	// Task Queues: pending tasks by dominant resource. A task may appear
	// in several queues (first-sighting map tasks go in all five); stale
	// entries are skipped lazily via task state.
	taskQ [NumResources][]*task.Task

	// Resource Queues: node offers per dimension, refilled on heartbeat
	// and task completion, drained every dispatch round.
	nodeQ [NumResources][]nodeOffer

	// gpuStage marks stage signatures observed using a GPU; all tasks of
	// such stages are treated as GPU tasks (§III-B2).
	gpuStage map[string]bool

	pendingSince map[int]float64 // taskID → enqueue time, for lock timeout

	// degraded marks nodes whose latest heartbeat reported a below-spec
	// CPU frequency (a gray-failed, fail-slow machine). Their CharDB
	// locks are released on entry and their running tasks bypass the
	// lock-compatibility exemption in the straggler detector.
	degraded map[string]bool

	// LocksReleased counts best-node locks dropped because their node
	// turned fail-slow (report hook).
	LocksReleased int

	// UncharacterizedLaunches counts launches of tasks the database had
	// never observed (no record, or zero successful runs). With a shared
	// CharDB this measures the warm-start benefit: the second app of a
	// workload should launch far fewer blind tasks than the first.
	UncharacterizedLaunches int

	// externalDB marks the characteristics database as externally owned
	// (the paper's Cassandra-backed DB_taskchar, here a database shared
	// across applications by the tenant manager). An external DB is
	// persistent: driver recovery keeps it instead of rebuilding from the
	// WAL, and it is never cleared — wiping it would also wipe what
	// sibling applications learned.
	externalDB bool

	// inFlight counts launched-but-unfinished attempts per node per
	// dimension (the queue that placed them), implementing the
	// Dispatcher's "number of tasks to launch on a specific node".
	inFlight map[string]*[NumResources]int
	dimOf    map[*executor.Run]Resource // attempt's placing dimension

	// pendingPass numbers PendingTasks calls; a call stamps each task it
	// counts with its number in task.SchedMark.
	pendingPass uint64

	rrIdx    int
	offerSeq uint64
}

// New returns a RUPAM scheduler with the given configuration.
func New(cfg Config) *RUPAM {
	return &RUPAM{
		cfg:          cfg.withDefaults(),
		db:           NewCharDB(),
		gpuStage:     make(map[string]bool),
		pendingSince: make(map[int]float64),
		degraded:     make(map[string]bool),
		inFlight:     make(map[string]*[NumResources]int),
		dimOf:        make(map[*executor.Run]Resource),
	}
}

// NewWithDB returns a RUPAM scheduler backed by an externally-owned
// characteristics database. The caller keeps the database alive across
// applications (and driver crashes), so every task learned by one app
// warm-starts its successors — the simulated equivalent of the paper's
// Cassandra-persisted DB_taskchar.
func NewWithDB(cfg Config, db *CharDB) *RUPAM {
	s := New(cfg)
	if db != nil {
		s.db = db
		s.externalDB = true
	}
	return s
}

// DB exposes the task-characteristics database (tests and reports).
func (s *RUPAM) DB() *CharDB { return s.db }

// Name implements spark.Scheduler.
func (s *RUPAM) Name() string { return "rupam" }

// RelocatesCache implements spark.CacheRelocator: RUPAM migrates tasks to
// better nodes, and their cached partitions follow (§III-C1's convergence
// to the best-observed node).
func (s *RUPAM) RelocatesCache() bool { return true }

// Bind implements spark.Scheduler.
func (s *RUPAM) Bind(rt *spark.Runtime) { s.rt = rt }

// ExecutorSetChanged implements spark.ExecutorSetAware as a no-op: RUPAM
// keeps no delay-scheduling state, and ExecutorLost purges a lost node's
// offers.
func (s *RUPAM) ExecutorSetChanged() {}

// HeapFor implements spark.Scheduler: dynamic executor sizing — each node
// gets (memory − reserve), instead of one conservative global size.
func (s *RUPAM) HeapFor(node *cluster.Node) int64 {
	if s.cfg.DisableMemAware {
		// The default scheduler's fixed executor size.
		return spark.StaticHeapBytes
	}
	h := node.Spec.MemBytes - reserveBytes
	if h < cluster.GB {
		h = cluster.GB
	}
	return h
}

// ---- Task Manager ---------------------------------------------------------

// characterize implements Algorithm 1: the queues a task belongs to, from
// its database record or its stage kind on first sighting.
func (s *RUPAM) characterize(st *task.Stage, t *task.Task) []Resource {
	if s.gpuStage[st.Signature] {
		// GPU tasks are not held hostage to the two accelerators: they
		// stay CPU-schedulable (OpenBLAS fallback) and the dispatcher
		// races copies onto idle GPUs (§III-C3).
		return []Resource{GPU, CPU}
	}
	rec := s.db.recordOf(st, t)
	if rec == nil || rec.Runs == 0 {
		if st.Kind == task.ShuffleMap {
			// Unknown map task: bounded by everything.
			return []Resource{CPU, Mem, Disk, Net, GPU}
		}
		// Unknown reduce/result task: network-bound (shuffle in, results
		// out).
		return []Resource{Net}
	}
	r, ok := s.bottleneckOf(rec)
	// Majority vote across the task's history outweighs the freshest
	// sample once it has a clear winner: a single contended shuffle must
	// not exile a compute-bound task to the big-NIC (slow-core) nodes.
	if maj, votes, any := rec.MajorityBottleneck(); any && rec.Runs >= 3 {
		if votes*2 > rec.Runs || !ok {
			r, ok = maj, true
		}
	}
	if ok {
		if r == GPU {
			return []Resource{GPU, CPU}
		}
		return []Resource{r}
	}
	return []Resource{CPU}
}

// bottleneckOf applies Algorithm 1's thresholds to a record. Note that
// memory is deliberately NOT a task bottleneck class: Algorithm 1 keeps
// four task queues (GPU/CPU/NET/DISK), and memory fitness is enforced at
// dispatch time against the node's free heap instead — classifying big
// CPU-bound tasks as "memory tasks" would exile them to the large-memory
// (but slow) machines.
func (s *RUPAM) bottleneckOf(rec *Record) (Resource, bool) {
	if rec.GPU {
		return GPU, true
	}
	maxShuffle := rec.ShuffleRead
	if rec.ShuffleWrite > maxShuffle {
		maxShuffle = rec.ShuffleWrite
	}
	if rec.ComputeTime > s.cfg.ResFactor*maxShuffle {
		return CPU, true
	}
	if rec.ShuffleRead > s.cfg.ResFactor*rec.ShuffleWrite {
		return Net, true
	}
	return Disk, true
}

// classifyMetrics derives the bottleneck of one finished attempt for the
// database update.
func (s *RUPAM) classifyMetrics(m *task.Metrics) (Resource, bool) {
	rec := Record{
		ComputeTime: m.ComputeTime,
		GPU:         m.UsedGPU,
		PeakMemory:  m.PeakMemory,
		// Table I's shuffleread/shufflewrite cover shuffle I/O only.
		// Input-fetch time is deliberately excluded: a remote cached-input
		// read is a one-time migration cost, and folding it in makes a
		// CPU-bound task look network-bound right after it moves — a
		// feedback loop that ping-pongs tasks between node classes.
		ShuffleRead:  m.ShuffleReadTime,
		ShuffleWrite: m.ShuffleWriteTime,
	}
	return s.bottleneckOf(&rec)
}

// enqueue places a task on its characteristic queues.
func (s *RUPAM) enqueue(st *task.Stage, t *task.Task) {
	// A stamp left by another scheduler could equal a later pass number.
	t.SchedMark = 0
	for _, r := range s.characterize(st, t) {
		s.taskQ[r] = append(s.taskQ[r], t)
	}
	s.pendingSince[t.ID] = s.rt.Eng.Now()
}

// StageSubmitted implements spark.Scheduler: enqueue the tasks and revive
// offers from every node so a fresh wave does not wait for the next
// heartbeat (Spark's reviveOffers on task-set registration).
func (s *RUPAM) StageSubmitted(st *task.Stage) {
	for _, t := range st.Tasks {
		s.enqueue(st, t)
	}
	for _, n := range s.rt.Clu.Nodes {
		s.offerNode(n)
	}
}

// Resubmit implements spark.Scheduler.
func (s *RUPAM) Resubmit(t *task.Task, st *task.Stage) {
	s.enqueue(st, t)
}

// PendingTasks counts distinct queued tasks still genuinely pending (a
// task may sit in several resource queues; stale entries for launched or
// finished tasks are skipped, as the dispatcher itself does). The chaos
// harness's queue-drain invariant expects zero after a completed run.
func (s *RUPAM) PendingTasks() int {
	s.pendingPass++
	n := 0
	for r := range s.taskQ {
		for _, t := range s.taskQ[r] {
			if t.State == task.Pending && t.SchedMark != s.pendingPass {
				t.SchedMark = s.pendingPass
				n++
			}
		}
	}
	return n
}

// ExecutorLost implements spark.ExecutorLossAware: a dead node's offers
// are purged from every resource queue, its in-flight accounting dropped,
// and the characteristics database forgets it — best-node locks naming the
// corpse would otherwise pin their tasks to it until lock timeout.
func (s *RUPAM) ExecutorLost(node string) {
	for r := range s.nodeQ {
		q := s.nodeQ[r][:0]
		for _, o := range s.nodeQ[r] {
			if o.node != node {
				q = append(q, o)
			}
		}
		s.nodeQ[r] = q
	}
	delete(s.inFlight, node)
	s.journalRecords(s.db.ForgetNode(node))
}

// journalRecords appends the current state of the given records to the
// runtime's write-ahead log (chardb-put records), so a recovered driver
// rebuilds the same characterization it crashed with. No-op without a WAL.
func (s *RUPAM) journalRecords(keys []TaskKey) {
	w := s.rt.WAL()
	if w == nil {
		return
	}
	for _, k := range keys {
		if b, ok := s.db.PutPayload(k); ok {
			w.Append(wal.Record{Kind: wal.KindCharDBPut, Key: journalKey(k), CharDB: b})
		}
	}
}

// journalKey is the WAL string form of a task key.
func journalKey(k TaskKey) string { return fmt.Sprintf("%s|%d", k.Signature, k.Partition) }

// DriverRecovery implements spark.RecoveryAware: a restarted driver drops
// every in-memory queue and counter (the runtime re-hands active stages
// over right after, refilling the task queues from replayed truth) and
// rebuilds the characteristics database from the journaled chardb-put
// payloads — the learned locks, bottleneck histories and OOM sets survive
// the crash. Stage-level GPU marking is recovered from the records' GPU
// flags.
func (s *RUPAM) DriverRecovery(ws *wal.State) {
	for r := range s.taskQ {
		s.taskQ[r] = nil
	}
	for r := range s.nodeQ {
		s.nodeQ[r] = nil
	}
	s.gpuStage = make(map[string]bool)
	s.pendingSince = make(map[int]float64)
	s.degraded = make(map[string]bool)
	s.inFlight = make(map[string]*[NumResources]int)
	s.dimOf = make(map[*executor.Run]Resource)
	s.rrIdx = 0
	s.offerSeq = 0

	if !s.externalDB {
		// An in-process database died with the driver: rebuild it from the
		// journaled payloads. An external database survived the crash by
		// construction (and holds sibling apps' learning), so it is kept
		// as-is and only the stage-GPU marking below is re-derived.
		s.db.Clear()
		keys := make([]string, 0, len(ws.CharDB))
		for k := range ws.CharDB {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := s.db.InstallPayload(ws.CharDB[k]); err != nil {
				continue // torn journal payload; relearned from fresh completions
			}
		}
	}
	s.db.each(func(key TaskKey, rec *Record) {
		if rec.GPU {
			s.gpuStage[key.Signature] = true
		}
	})
}

// TaskEnded implements spark.Scheduler: record the observation in the
// characteristics DB, propagate stage-level GPU marking, and re-offer the
// node that just freed capacity.
func (s *RUPAM) TaskEnded(t *task.Task, r *executor.Run, out executor.Outcome) {
	if dim, ok := s.dimOf[r]; ok {
		if f := s.inFlight[r.Metrics().Executor]; f != nil && f[dim] > 0 {
			f[dim]--
		}
		delete(s.dimOf, r)
	}
	st := r.Stage()
	m := r.Metrics()
	if m.UsedGPU {
		s.gpuStage[st.Signature] = true
	}
	bottleneck, ok := s.classifyMetrics(m)
	s.db.Update(KeyFor(st, t), m, bottleneck, ok && out == executor.Success)
	s.journalRecords([]TaskKey{KeyFor(st, t)})
	if out == executor.Success {
		delete(s.pendingSince, t.ID)
	}
	if node := s.rt.Clu.Node(m.Executor); node != nil {
		s.offerNode(node)
	}
}

// ---- Resource Monitor side --------------------------------------------------

// Heartbeat implements spark.Scheduler: run the straggler detectors and
// offer the reporting node.
func (s *RUPAM) Heartbeat(nodeName string, nm *monitor.NodeMetrics) {
	s.noteFreq(nodeName, nm)
	if !s.cfg.DisableMemAware {
		s.reclaimMemory(nodeName, nm)
	}
	if !s.cfg.DisableGPURace {
		s.raceGPUTasks()
	}
	s.detectResourceStragglers()
	if node := s.rt.Clu.Node(nodeName); node != nil {
		s.offerNode(node)
	}
}

// noteFreq tracks each node's reported CPU frequency against its spec —
// Table I's cpufreq as a *dynamic* metric. A node entering a degraded
// (fail-slow) window has its best-node locks released so the CharDB
// stops steering tasks onto throttled hardware; when the heartbeat shows
// spec frequency again the node leaves the degraded set and locks are
// relearned from fresh completions.
func (s *RUPAM) noteFreq(nodeName string, nm *monitor.NodeMetrics) {
	node := s.rt.Clu.Node(nodeName)
	if node == nil || nm == nil || nm.CPUFreq <= 0 {
		return
	}
	slow := nm.CPUFreq < node.Spec.FreqGHz*0.999
	if slow && !s.degraded[nodeName] {
		s.degraded[nodeName] = true
		released := s.db.ReleaseNodeLocks(nodeName)
		s.LocksReleased += len(released)
		s.journalRecords(released)
	} else if !slow && s.degraded[nodeName] {
		delete(s.degraded, nodeName)
	}
}

// reclaimMemory is the §III-C3 memory-straggler path: when a node reports
// critically low free memory, kill its hungriest running task before the
// OS kills the JVM; the task re-enters the queues and lands somewhere
// roomier.
func (s *RUPAM) reclaimMemory(nodeName string, nm *monitor.NodeMetrics) {
	ex := s.rt.Execs[nodeName]
	if ex == nil || ex.Down() {
		return
	}
	if float64(ex.HeapFree()) >= lowMemFrac*float64(ex.Heap().Capacity()) {
		return
	}
	// Cheapest relief first: drop cached partitions (they can be
	// re-fetched) before killing a running task.
	want := int64(2*lowMemFrac*float64(ex.Heap().Capacity())) - ex.HeapFree()
	if ex.ReclaimCache(want) > 0 &&
		float64(ex.HeapFree()) >= lowMemFrac*float64(ex.Heap().Capacity()) {
		return
	}
	var victim *executor.Run
	for _, r := range ex.RunningView() {
		if victim == nil || r.Task().Demand.PeakMemory > victim.Task().Demand.PeakMemory {
			victim = r
		}
	}
	if victim != nil && victim.Task().Demand.PeakMemory > 0 {
		s.rt.MemKills++
		victim.Kill(true)
	}
}

// detectResourceStragglers extends checkSpeculatableTasks with history:
// a task that has already run much longer than its best-known time is
// straggling on an ill-suited node and becomes a candidate for a copy on
// a better one, regardless of Spark's stage-quantile gate (§III-C3).
func (s *RUPAM) detectResourceStragglers() {
	now := s.rt.Eng.Now()
	for i, n := range s.rt.Clu.Nodes {
		ex := s.rt.ExecutorAt(i)
		if ex == nil {
			continue
		}
		for _, r := range ex.RunningView() {
			t := r.Task()
			st := s.rt.StageOf(t)
			if st == nil {
				continue // another tenant's attempt on the shared executor
			}
			rec := s.db.recordOf(st, t)
			if rec == nil || rec.BestTime == 0 {
				continue
			}
			// A lock-compatible node is normally exempt (the task is
			// already on hardware as good as its best), but not when the
			// node's heartbeats show it running below spec: the spec
			// comparison no longer describes reality there.
			if s.lockCompatible(rec, n) && !s.degraded[n.Name()] {
				continue
			}
			if now-r.Metrics().Launch > 1.5*rec.BestTime+1 {
				s.rt.MarkSpeculatable(t)
			}
		}
	}
}

// raceGPUTasks marks GPU-capable tasks running on CPUs as speculatable
// when an accelerator is idle somewhere — the OpenBLAS/NVBLAS
// dual-version race of §III-C3.
func (s *RUPAM) raceGPUTasks() {
	idleGPU := false
	for _, n := range s.rt.Clu.Nodes {
		if n.GPU.Idle() > 0 && s.rt.CanRunOn(n.Name()) {
			idleGPU = true
			break
		}
	}
	if !idleGPU {
		return
	}
	now := s.rt.Eng.Now()
	for i := range s.rt.Clu.Nodes {
		ex := s.rt.ExecutorAt(i)
		if ex == nil {
			continue
		}
		for _, r := range ex.RunningView() {
			t := r.Task()
			if s.rt.StageOf(t) == nil {
				continue // another tenant's attempt on the shared executor
			}
			if t.Demand.GPUCapable() && !r.Metrics().UsedGPU &&
				now-r.Metrics().Launch > gpuRaceMinRun {
				s.rt.MarkSpeculatable(t)
			}
		}
	}
}

// offerNode inserts the node into every resource queue it currently
// qualifies for.
func (s *RUPAM) offerNode(node *cluster.Node) {
	name := node.Name()
	ex := s.rt.Execs[name]
	if ex == nil || !s.rt.CanRunOn(name) {
		return
	}
	running := ex.RunningTasks()
	cores := node.Spec.Cores
	// A node with a free core is always offerable; beyond that, only
	// under-utilized dimensions are over-committed, up to the cap.
	hasFreeCore := running < cores
	overcommitOK := float64(running) < overcommitFactor*float64(cores)
	if !hasFreeCore && !overcommitOK {
		return
	}
	flight := s.inFlight[name]
	if flight == nil {
		flight = new([NumResources]int)
		s.inFlight[name] = flight
	}
	add := func(r Resource, cap, util float64, ok bool) {
		if !ok || flight[r] >= dimSlots(node, r) {
			return
		}
		s.offerSeq++
		s.nodeQ[r] = append(s.nodeQ[r], nodeOffer{node: name, cap: cap, util: util, seq: s.offerSeq})
	}
	cpuUtil := node.CPUUtil()
	diskUtil := node.DiskUtil()
	// CPU offers never over-commit: stacking two compute-bound tasks on a
	// core halves both. Over-commit happens through the other dimensions,
	// whose tasks leave the cores mostly idle.
	add(CPU, node.Spec.FreqGHz, cpuUtil, hasFreeCore)
	free := ex.ProjectedFree()
	// Memory offers carry arbitrary task mixes, so beyond the core count
	// they are gated on the node's compute and disk health — over-commit
	// must overlap *different* demands, not pile identical ones (§III-C2).
	add(Mem, float64(ex.Heap().Capacity()), 1-float64(free)/float64(ex.Heap().Capacity()),
		free > 256*cluster.MB && (hasFreeCore || (cpuUtil < utilThreshold && diskUtil < utilThreshold)))
	add(Disk, node.Spec.DiskReadBW+node.Spec.DiskWriteBW, diskUtil, hasFreeCore || diskUtil < utilThreshold)
	netUtil := node.NetUtil()
	add(Net, node.Spec.NetBandwidth, netUtil, hasFreeCore || netUtil < utilThreshold)
	// A GPU offer is one accelerator slot: attempts already heading for
	// this node's GPUs (launched but not yet in their compute phase)
	// count against the idle total, otherwise the queue hands out the
	// same GPU many times and the surplus tasks land on the GPU node's
	// slow cores.
	gpuWant := 0
	for _, run := range ex.RunningView() {
		if run.Task().Demand.GPUCapable() && !run.Metrics().UsedGPU {
			gpuWant++
		}
	}
	add(GPU, float64(node.GPU.Idle()), node.GPU.Utilization(), node.GPU.Idle() > gpuWant)
}

// ---- Dispatcher (Algorithm 2) ----------------------------------------------

// Schedule implements spark.Scheduler: drain the resource queues
// round-robin, matching each dequeued node with the best task of that
// dimension.
func (s *RUPAM) Schedule() {
	for {
		res, offer, ok := s.dequeueRR()
		if !ok {
			break
		}
		d := s.rt.NewDecision(s.Name(), offer.node)
		d.SetQueue(res.String(), offer.cap, offer.util)
		t, lvl, heuristic := s.pickTask(res, offer.node, d)
		spec := false
		if t == nil {
			t, lvl = s.pickSpeculative(res, offer.node, d)
			if t == nil {
				continue
			}
			s.rt.ClearSpeculatable(t)
			spec = true
			heuristic = "speculative-copy"
		}
		if run := s.rt.Launch(t, offer.node, executor.Options{Locality: lvl, Speculative: spec}); run != nil {
			d.SetWinner(t.ID, heuristic, lvl.String(), spec)
			d.Commit()
			s.noteLaunch(offer.node, run, res)
			// The node may still have capacity; offer it again so a
			// single heartbeat can fill a whole machine.
			s.reofferNode(offer.node)
		} else if t.State == task.Pending {
			// The runtime refused the launch (node lost mid-round, parent
			// outputs rolled back, blacklist): pickTask already removed the
			// task from its queue, so put it back or it is silently dropped.
			if st := s.rt.StageOf(t); st != nil {
				s.enqueue(st, t)
			}
		}
	}
	s.rescueStarvation()
}

// noteLaunch records the dimension that placed an attempt on a node.
func (s *RUPAM) noteLaunch(node string, run *executor.Run, res Resource) {
	if rec := s.db.recordOf(run.Stage(), run.Task()); rec == nil || rec.Runs == 0 {
		s.UncharacterizedLaunches++
	}
	f := s.inFlight[node]
	if f == nil {
		f = new([NumResources]int)
		s.inFlight[node] = f
	}
	f[res]++
	s.dimOf[run] = res
}

// dimSlots bounds concurrent tasks per dimension on a node: CPU tasks get
// one core each; disk-bound tasks are limited to what the device serves
// without collapsing (an SSD sustains more concurrent streams than an
// HDD); network-bound tasks scale with NIC bandwidth; memory-bound tasks
// are bounded by cores (they still compute).
func dimSlots(node *cluster.Node, r Resource) int {
	switch r {
	case CPU:
		return node.Spec.Cores
	case Disk:
		if node.Spec.SSD {
			return 12
		}
		return 6
	case Net:
		slots := int(node.Spec.NetBandwidth / cluster.GbE(1) * 3)
		if slots < 8 {
			slots = 8
		}
		return slots
	case Mem:
		return node.Spec.Cores
	case GPU:
		return node.Spec.GPUs
	}
	return node.Spec.Cores
}

// reofferNode re-inserts a node into the queues it still qualifies for.
func (s *RUPAM) reofferNode(name string) {
	if node := s.rt.Clu.Node(name); node != nil {
		s.offerNode(node)
	}
}

// dequeueRR pops the best node offer from the next non-empty resource
// queue in round-robin order (or fixed order under the DisableRR
// ablation), so no single resource dimension starves the others.
func (s *RUPAM) dequeueRR() (Resource, nodeOffer, bool) {
	for k := 0; k < NumResources; k++ {
		idx := (s.rrIdx + k) % NumResources
		if s.cfg.DisableRR {
			idx = k
		}
		res := Resources[idx]
		q := s.nodeQ[res]
		if len(q) == 0 {
			continue
		}
		best := 0
		for i := 1; i < len(q); i++ {
			if q[i].better(q[best]) {
				best = i
			}
		}
		offer := q[best]
		s.nodeQ[res] = append(q[:best], q[best+1:]...)
		if !s.cfg.DisableRR {
			s.rrIdx = (idx + 1) % NumResources
		}
		if !s.rt.CanRunOn(offer.node) {
			continue
		}
		return res, offer, true
	}
	return CPU, nodeOffer{}, false
}

// recDetail summarizes a CharDB record for the decision audit. Call sites
// guard with d != nil so the disabled path never formats.
func recDetail(rec *Record) string {
	if rec == nil || rec.Runs == 0 {
		return "uncharacterized"
	}
	return fmt.Sprintf("runs %d, best %.2fs on %s, peak-mem %dMB",
		rec.Runs, rec.BestTime, rec.OptExecutor, rec.PeakMemory/(1<<20))
}

// pickTask implements Algorithm 2's schedule_task: among pending tasks of
// the resource dimension, honor best-node locks, require a memory fit,
// take a PROCESS_LOCAL match immediately, and otherwise return the task
// with the best locality on the node. The returned string names the
// heuristic that selected the task, for the decision audit; candidates and
// rejection reasons are recorded on d (nil when tracing is off).
func (s *RUPAM) pickTask(res Resource, node string, d *tracing.Decision) (*task.Task, hdfs.Locality, string) {
	q := s.taskQ[res]
	freeMem := int64(1) << 62
	if !s.cfg.DisableMemAware {
		if ex := s.rt.Execs[node]; ex != nil {
			// Leave GC headroom: a heap packed to the rim collects
			// constantly (§IV-D), so admission stops short of full.
			freeMem = ex.ProjectedFree() - int64(0.12*float64(ex.Heap().Capacity()))
		}
	}
	now := s.rt.Eng.Now()
	nd := s.rt.Clu.Node(node) // offers come from cluster nodes
	overCore := false
	if ex := s.rt.Execs[node]; ex != nil {
		overCore = ex.RunningTasks() >= nd.Spec.Cores
	}

	// Compact stale entries (launched or finished elsewhere) first.
	live := q[:0]
	for _, t := range q {
		if t.State == task.Pending {
			live = append(live, t)
		}
	}
	s.taskQ[res] = live

	var best *task.Task
	bestLvl := hdfs.Any + 1
	heuristic := ""
	var lockedFallback *task.Task

scan:
	for _, t := range live {
		if s.rt.TaskBlockedOn(t.ID, node) {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "blacklisted-pairing", "")
			}
			continue // blacklisted pairing after repeated failures there
		}
		rec := s.record(t)
		// Over-commit is only for tasks whose bottleneck is known to
		// leave the cores idle; an uncharacterized task gets a real core
		// slot or waits (§III-C2's "overlap tasks with different resource
		// demands" requires knowing the demands).
		if overCore && (rec == nil || rec.Runs == 0) {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "uncharacterized-overcommit", recDetail(rec))
			}
			continue
		}
		locked := !s.cfg.DisableLocking && rec != nil && rec.Locked(lockAfterRuns)
		if locked && rec.GPU {
			// GPU tasks are raced across GPU and CPU nodes (§III-C3),
			// never pinned: with only two accelerators, pinning would
			// serialize the whole stage behind them.
			locked = false
		}
		lockExpired := locked && now-s.pendingSince[t.ID] > lockTimeout

		if t.Demand.PeakMemory > freeMem {
			// Exception mirroring Algorithm 2 lines 13-16: a fully
			// characterized task locked to this very node runs here even
			// under pressure — history says this is its best home.
			if locked && rec.OptExecutor == node && rec.fullHistory() {
				if d != nil {
					d.Candidate(t.ID, t.LocalityOn(node).String(), "", recDetail(rec))
				}
				best, bestLvl, heuristic = t, t.LocalityOn(node), "memory-exception-lock"
				break scan
			}
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "no-mem-fit",
					fmt.Sprintf("needs %dMB, %dMB usable; %s", t.Demand.PeakMemory/(1<<20), freeMem/(1<<20), recDetail(rec)))
			}
			continue
		}
		if rec != nil && rec.OOMNodes[node] && !lockExpired {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "oom-history-on-node", recDetail(rec))
			}
			continue
		}
		if locked && !lockExpired {
			if s.lockCompatible(rec, nd) {
				if d != nil {
					d.Candidate(t.ID, t.LocalityOn(node).String(), "", recDetail(rec))
				}
				best, bestLvl, heuristic = t, t.LocalityOn(node), "lock-compatible"
				break scan
			}
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "lock-incompatible", recDetail(rec))
			}
			if lockedFallback == nil {
				lockedFallback = t
			}
			continue
		}
		// Uncharacterized tasks keep Spark's locality preference: until
		// the scheduler knows a task's bottleneck it has no grounds to
		// trade locality away, so for a short wait only nodes holding (or
		// beating the capability of) the task's preferred locations take
		// it — "a simple heuristic that does not sacrifice data locality"
		// (§I).
		if (rec == nil || rec.Runs == 0) && len(t.PrefNodes) > 0 && t.CachedOn == "" &&
			t.LocalityOn(node) == hdfs.Any &&
			now-s.pendingSince[t.ID] <= unknownPatience &&
			s.anyPrefFree(t) {
			// Waiting is only worthwhile while some preferred node could
			// actually take the task soon.
			if d != nil {
				d.Candidate(t.ID, hdfs.Any.String(), "waiting-for-locality",
					fmt.Sprintf("uncharacterized; prefers %v", t.PrefNodes))
			}
			continue
		}
		// Cache affinity with a capability override: a task whose cached
		// partition sits on a node at least as capable (along the task's
		// bottleneck) waits briefly for that node instead of being
		// stolen — but a more capable node may always take it, moving
		// the partition along (§III-C1's "tries different assignments").
		if t.CachedOn != "" && t.CachedOn != node &&
			now-s.pendingSince[t.ID] <= lockTimeout &&
			!s.nodeBetterFor(node, t.CachedOn, res) {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "cache-affinity-wait",
					fmt.Sprintf("partition cached on %s; %s", t.CachedOn, recDetail(rec)))
			}
			continue
		}
		lvl := t.LocalityOn(node)
		if lvl == hdfs.ProcessLocal {
			if d != nil {
				d.Candidate(t.ID, lvl.String(), "", recDetail(rec))
			}
			best, bestLvl, heuristic = t, lvl, "process-local"
			break scan
		}
		if d != nil {
			d.Candidate(t.ID, lvl.String(), "", recDetail(rec))
		}
		if lvl < bestLvl {
			best, bestLvl, heuristic = t, lvl, "best-locality"
		}
	}

	if best == nil && lockedFallback != nil && now-s.pendingSince[lockedFallback.ID] > lockTimeout {
		// Anti-starvation: a locked task has waited too long; run it here.
		best, bestLvl, heuristic = lockedFallback, lockedFallback.LocalityOn(node), "lock-timeout-fallback"
	}
	if best == nil {
		return nil, hdfs.Any, ""
	}
	s.taskQ[res] = removeTask(live, best)
	return best, bestLvl, heuristic
}

func removeTask(q []*task.Task, t *task.Task) []*task.Task {
	for i, x := range q {
		if x == t {
			return append(q[:i], q[i+1:]...)
		}
	}
	return q
}

// anyPrefFree reports whether any of the task's preferred nodes has a
// free core slot (i.e. waiting for locality could pay off).
func (s *RUPAM) anyPrefFree(t *task.Task) bool {
	for _, p := range t.PrefNodes {
		ex := s.rt.Execs[p]
		n := s.rt.Clu.Node(p)
		if ex == nil || n == nil || ex.Down() {
			continue
		}
		if ex.RunningTasks() < n.Spec.Cores {
			return true
		}
	}
	return false
}

// nodeBetterFor reports whether candidate strictly beats incumbent along
// the given resource dimension.
func (s *RUPAM) nodeBetterFor(candidate, incumbent string, dim Resource) bool {
	c := s.rt.Clu.Node(candidate)
	i := s.rt.Clu.Node(incumbent)
	if c == nil || i == nil {
		return true
	}
	switch dim {
	case Mem:
		return c.Spec.MemBytes > i.Spec.MemBytes
	case Disk:
		return c.Spec.DiskReadBW+c.Spec.DiskWriteBW > i.Spec.DiskReadBW+i.Spec.DiskWriteBW
	case Net:
		return c.Spec.NetBandwidth > i.Spec.NetBandwidth
	case GPU:
		return c.Spec.GPUs > i.Spec.GPUs
	default:
		return c.Spec.FreqGHz > i.Spec.FreqGHz
	}
}

// lockCompatible reports whether node is at least as capable as the
// locked task's best node along the task's bottleneck dimension — locking
// pins tasks to hardware, and equally-endowed siblings of the best node
// count as that hardware (otherwise eight tasks locked to one 8-core
// machine would serialize).
func (s *RUPAM) lockCompatible(rec *Record, node *cluster.Node) bool {
	if rec.OptExecutor == node.Name() {
		return true
	}
	opt := s.rt.Clu.Node(rec.OptExecutor)
	if opt == nil {
		return false
	}
	r, ok := s.bottleneckOf(rec)
	if !ok {
		return false
	}
	switch r {
	case CPU:
		return node.Spec.FreqGHz >= opt.Spec.FreqGHz
	case Mem:
		return node.Spec.MemBytes >= opt.Spec.MemBytes
	case Disk:
		return node.Spec.DiskReadBW+node.Spec.DiskWriteBW >= opt.Spec.DiskReadBW+opt.Spec.DiskWriteBW
	case Net:
		return node.Spec.NetBandwidth >= opt.Spec.NetBandwidth
	case GPU:
		return node.Spec.GPUs >= opt.Spec.GPUs
	}
	return false
}

// pickSpeculative implements Algorithm 2's straggler path: when no pending
// task fits the dequeued node, launch a copy of a straggler — restricted
// to GPU-capable stragglers when the offer came from the GPU queue.
func (s *RUPAM) pickSpeculative(res Resource, node string, d *tracing.Decision) (*task.Task, hdfs.Locality) {
	ex := s.rt.Execs[node]
	for _, t := range s.rt.SpeculativeTasks() {
		runs := s.rt.RunningAttempts(t)
		if len(runs) != 1 {
			continue
		}
		// SpecCopyAllowed folds in the same-node, blacklist, degraded-node
		// and per-stage copy-cap gates shared with the stock scheduler.
		if !s.rt.SpecCopyAllowed(t, node) {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "spec-copy-not-allowed", "")
			}
			continue
		}
		if res == GPU && !t.Demand.GPUCapable() {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "not-gpu-capable", "")
			}
			continue
		}
		if !s.cfg.DisableMemAware && ex != nil && t.Demand.PeakMemory > ex.ProjectedFree() {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "no-mem-fit", "")
			}
			continue
		}
		if !s.copyWorthwhile(t, runs[0], node) {
			if d != nil {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "copy-not-worthwhile",
					fmt.Sprintf("running on %s", runs[0].Metrics().Executor))
			}
			continue
		}
		return t, t.LocalityOn(node)
	}
	return nil, hdfs.Any
}

// copyWorthwhile gates speculative copies: a copy only makes sense on a
// node expected to beat the running attempt — an idle GPU for a
// CPU-stranded GPU task, the task's best-known node, or a substantially
// faster CPU.
func (s *RUPAM) copyWorthwhile(t *task.Task, cur *executor.Run, nodeName string) bool {
	node := s.rt.Clu.Node(nodeName)
	if node == nil {
		return false
	}
	if t.Demand.GPUCapable() && !cur.Metrics().UsedGPU && node.GPU.Idle() > 0 {
		// Admit only as many racing copies as there are idle GPUs,
		// counting copies already in flight toward this node's GPUs —
		// otherwise the copies themselves pile up on the GPU node's
		// (slow) cores.
		pendingWant := 0
		if ex := s.rt.Execs[nodeName]; ex != nil {
			for _, r := range ex.RunningView() {
				if r.Task().Demand.GPUCapable() && !r.Metrics().UsedGPU {
					pendingWant++
				}
			}
		}
		return node.GPU.Idle() > pendingWant
	}
	if rec := s.record(t); rec != nil && rec.OptExecutor == nodeName {
		return true
	}
	curNode := s.rt.Clu.Node(cur.Metrics().Executor)
	if curNode == nil {
		return true
	}
	// Judge the running attempt's node by its *reported* frequency, not
	// its spec: inside a CPUDegrade window a nominally fast node is the
	// straggler's whole problem, and a healthy-but-slower-on-paper node
	// can genuinely beat it.
	curFreq := curNode.Spec.FreqGHz
	if nm := s.rt.Mon.Latest(curNode.Name()); nm != nil && nm.CPUFreq > 0 && nm.CPUFreq < curFreq {
		curFreq = nm.CPUFreq
	}
	return node.Spec.FreqGHz > 1.3*curFreq
}

// rescueStarvation is a liveness net: if nothing is running anywhere and
// work is pending, force the first pending task onto the roomiest node.
func (s *RUPAM) rescueStarvation() {
	for i := range s.rt.Clu.Nodes {
		if ex := s.rt.ExecutorAt(i); ex != nil && ex.RunningTasks() > 0 {
			return
		}
	}
	var t *task.Task
	for _, q := range s.taskQ {
		for _, c := range q {
			if c.State == task.Pending && (t == nil || c.ID < t.ID) {
				t = c
				break
			}
		}
	}
	if t == nil {
		return
	}
	var bestNode string
	var bestFree int64 = -1
	for i, n := range s.rt.Clu.Nodes {
		ex := s.rt.ExecutorAt(i)
		if ex == nil || !s.rt.CanRunOn(n.Name()) {
			continue
		}
		if ex.HeapFree() > bestFree {
			bestFree, bestNode = ex.HeapFree(), n.Name()
		}
	}
	if bestNode != "" {
		if run := s.rt.Launch(t, bestNode, executor.Options{Locality: t.LocalityOn(bestNode)}); run != nil {
			d := s.rt.NewDecision(s.Name(), bestNode)
			if d != nil {
				d.Note("liveness net: nothing running anywhere, forced onto roomiest node")
				d.SetWinner(t.ID, "starvation-rescue", t.LocalityOn(bestNode).String(), false)
				d.Commit()
			}
			s.noteLaunch(bestNode, run, Mem)
		}
	}
}

// record returns the task's CharDB record in place (see stored), found
// via its stage in the runtime.
func (s *RUPAM) record(t *task.Task) *Record {
	if st := s.rt.StageOf(t); st != nil {
		return s.db.recordOf(st, t)
	}
	return s.db.stored(keyByRuntime(s.rt, t))
}

// keyByRuntime resolves a task's DB key via its stage in the runtime.
func keyByRuntime(rt *spark.Runtime, t *task.Task) TaskKey {
	st := rt.StageOf(t)
	if st == nil {
		return TaskKey{Partition: t.Index}
	}
	return KeyFor(st, t)
}

// sortOffers orders node offers for deterministic inspection in tests.
func sortOffers(offers []nodeOffer) {
	sort.Slice(offers, func(i, j int) bool { return offers[i].better(offers[j]) })
}
