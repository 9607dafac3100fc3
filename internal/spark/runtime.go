// Package spark is the execution-framework substrate: a faithful model of
// Spark's driver-side machinery — sequential jobs, stages submitted as
// their shuffle dependencies complete, per-stage task sets, task retries
// on failure, speculative execution — with the task-to-node placement
// policy abstracted behind the Scheduler interface. Two schedulers plug
// in: this package's DefaultScheduler (locality-wait over core-count
// slots, Spark's stock policy) and package core's RUPAM.
package spark

import (
	"fmt"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/faults"
	"rupam/internal/metrics"
	"rupam/internal/monitor"
	"rupam/internal/netsim"
	"rupam/internal/simx"
	"rupam/internal/task"
	"rupam/internal/tracing"
	"rupam/internal/wal"
)

// Config carries the framework's tunables; zero fields take the Spark
// defaults noted per field.
type Config struct {
	// DriverNode hosts the driver program (result flows land here);
	// defaults to the first cluster node, matching the paper's master
	// co-located on a worker.
	DriverNode string
	// StaticHeapBytes is the executor heap the default scheduler uses on
	// every node (the paper sets 14 GB to fit the 16 GB thor machines).
	StaticHeapBytes int64
	// LocalityWait is the delay-scheduling relaxation timeout per level
	// (spark.locality.wait, default 3 s).
	LocalityWait float64
	// SpeculationInterval is how often stragglers are re-evaluated
	// (default 0.5 s).
	SpeculationInterval float64
	// SpeculationQuantile is the completed fraction before speculation
	// kicks in (default 0.75).
	SpeculationQuantile float64
	// SpeculationMultiplier times the median successful duration marks a
	// straggler (default 1.5).
	SpeculationMultiplier float64
	// SpeculationMaxPerStage caps in-flight speculative copies per stage
	// (0 = unlimited, the historical behavior). Under gray failures an
	// uncapped speculation pass can clone most of a stage onto the
	// healthy nodes at once; real Spark bounds the wave.
	SpeculationMaxPerStage int
	// HeartbeatInterval is the worker heartbeat period (default 1 s).
	HeartbeatInterval float64
	// MaxAttempts bounds per-task attempts before the task is forced onto
	// the highest-memory node (default 8).
	MaxAttempts int
	// HeartbeatTimeout is how long a node may go silent before the driver
	// declares its executor lost (spark.network.timeout; default 10 s).
	HeartbeatTimeout float64
	// TaskMaxFailures, when positive, bounds genuine failures (OOM, loss,
	// fetch failure) per task before the job aborts with an AbortError
	// (spark.task.maxFailures). 0 disables the bound, preserving the
	// retry-forever behavior the no-fault experiments were tuned on.
	TaskMaxFailures int
	// Blacklist configures driver-side node blacklisting (off by default).
	Blacklist BlacklistConfig
	// Faults, when non-empty, is the fault-injection plan applied to the
	// cluster during the run. Nil or empty leaves the run byte-identical
	// to one without the fault layer.
	Faults *faults.Schedule
	// WAL, when non-nil, receives every driver state transition as an
	// append-only write-ahead log; crash recovery replays it. Left nil, an
	// in-memory log is created automatically when the fault plan contains
	// a DriverCrash (a crash without a WAL would be unrecoverable), and no
	// log is kept otherwise.
	WAL *wal.Log
	// FetchRetries bounds how many deterministic-backoff re-checks a
	// shuffle fetch from a slow-but-alive source gets before the driver
	// escalates to FetchFailed (default 2; negative disables, escalating
	// immediately as before). Fetches from a source whose executor is
	// confirmed dead always escalate immediately.
	FetchRetries int
	// FetchRetryBackoff is the base backoff between fetch re-checks in
	// seconds; check i fires backoff×i after the previous (default 1.5).
	FetchRetryBackoff float64
	// SampleInterval is the utilization-trace sampling period (default
	// 1 s; 0 keeps the default, negative disables tracing).
	SampleInterval float64
	// MaxSimTime aborts (panics) a run whose virtual clock exceeds this
	// many seconds — a watchdog against scheduler livelocks (default
	// 86400, one simulated day).
	MaxSimTime float64
	// Exec carries the physical execution-model constants.
	Exec executor.Config
	// Seed drives all run randomness (failure coin flips).
	Seed uint64
	// Tracer, when non-nil, records the structured event trace (attempt
	// lifecycle, stage/job spans, decision audit). Nil disables tracing
	// with zero behavioral difference.
	Tracer *tracing.Collector
	// AppLabel and PoolLabel scope trace events and decision audits when
	// several applications share one Collector (multi-tenant runs). Both
	// are empty for single-application runs.
	AppLabel  string
	PoolLabel string
}

func (c Config) withDefaults() Config {
	if c.StaticHeapBytes == 0 {
		c.StaticHeapBytes = 14 * cluster.GB
	}
	if c.LocalityWait == 0 {
		c.LocalityWait = 3
	}
	if c.SpeculationInterval == 0 {
		c.SpeculationInterval = 0.5
	}
	if c.SpeculationQuantile == 0 {
		c.SpeculationQuantile = 0.75
	}
	if c.SpeculationMultiplier == 0 {
		c.SpeculationMultiplier = 1.5
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 1
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 8
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 10
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 1
	}
	if c.FetchRetries == 0 {
		c.FetchRetries = 2
	}
	if c.FetchRetryBackoff == 0 {
		c.FetchRetryBackoff = 1.5
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 86400
	}
	return c
}

// CacheRelocator is an optional Scheduler capability: a scheduler that
// migrates tasks deliberately wants cached partitions to follow them.
type CacheRelocator interface {
	RelocatesCache() bool
}

// ExecutorSetAware is an optional Scheduler capability: schedulers whose
// pending queues carry time-based state keyed to the set of usable
// executors (the default scheduler's delay-scheduling level and timer)
// implement it to re-derive that state when the set changes — a node is
// lost or rejoins, a crashed worker restarts, or dynamic allocation
// grants/revokes the application's slots on a node.
type ExecutorSetAware interface {
	ExecutorSetChanged()
}

// Substrate is the cluster-side state a multi-application run shares: one
// executor (node-level worker) per node, one cache registry, and one
// heartbeat monitor. A tenant manager builds it once and hands it to every
// application's Runtime; single-application runs build their own in Start.
type Substrate struct {
	Execs map[string]*executor.Executor
	Cache *executor.CacheTracker
	Mon   *monitor.Monitor
}

// Scheduler is the task-placement policy. The Runtime notifies it of
// schedulable work and cluster events; the scheduler responds by calling
// Runtime.Launch.
type Scheduler interface {
	// Name identifies the scheduler in reports ("spark", "rupam", ...).
	Name() string
	// Bind attaches the scheduler to a runtime before the app starts.
	Bind(rt *Runtime)
	// HeapFor sizes the executor heap for a node (static for default
	// Spark, per-node for RUPAM).
	HeapFor(node *cluster.Node) int64
	// StageSubmitted hands the scheduler a ready stage's tasks.
	StageSubmitted(st *task.Stage)
	// Resubmit returns a failed task to the pending pool.
	Resubmit(t *task.Task, st *task.Stage)
	// TaskEnded reports a finished attempt (for bookkeeping such as
	// RUPAM's task-characteristics database).
	TaskEnded(t *task.Task, r *executor.Run, out executor.Outcome)
	// Heartbeat delivers a node's resource report.
	Heartbeat(node string, nm *monitor.NodeMetrics)
	// Schedule launches as many pending tasks as current resources allow.
	Schedule()
}

// Runtime wires a cluster, an application, and a scheduler together and
// runs the app to completion on the simulation engine.
type Runtime struct {
	Eng   *simx.Engine
	Clu   *cluster.Cluster
	Cfg   Config
	Cache *executor.CacheTracker
	Mon   *monitor.Monitor
	Execs map[string]*executor.Executor
	Rec   *metrics.Recorder

	sched Scheduler
	app   *task.Application

	// multi-application (tenant) mode. sub is non-nil when this runtime
	// shares its executors, cache and monitor with sibling applications;
	// the substrate's owner (the tenant manager) then drives heartbeats
	// through DeliverHeartbeat and the engine itself. ownsSubstrate marks
	// the classic single-application path, where the runtime creates and
	// tears down those objects itself.
	sub           *Substrate
	ownsSubstrate bool
	// gate, when set, is the tenant layer's per-node launch admission:
	// fair-share slot caps and dynamic-allocation leases. Nil (single-app
	// runs) admits everything, preserving the historical behavior.
	gate func(node string) bool
	// capFn, when set, is the application-wide slot budget (FAIR share);
	// Launch refuses new attempts once it reports the budget spent.
	capFn func() bool
	// rescheduleFn replaces direct sched.Schedule() calls so the tenant
	// manager can run a global FAIR round across all applications instead
	// of a local one. Nil means local.
	rescheduleFn func()
	// OnAppDone, when set, fires once when the application completes or
	// aborts — the tenant manager's completion hook.
	OnAppDone func()
	// broker, when set, is the federation layer's placement arbiter:
	// Launch refuses any attempt the broker has not granted a committed
	// claim for, and reports each granted launch back so the claim can be
	// bound. Nil (non-federated runs) admits everything.
	broker PlacementBroker
	// OnAttemptEnd, when set, observes every attempt termination (success,
	// loser kill, failure) after the runtime's own accounting — the
	// federation layer releases the attempt's slot claim here.
	OnAttemptEnd func(t *task.Task, node string, out executor.Outcome)
	// OnRecovered, when set, fires at the end of driver crash recovery,
	// after survivors are re-adopted and orphans redelivered — the
	// federation layer rebuilds its protocol state from the WAL here.
	OnRecovered func()
	// hbDelivered counts heartbeats this runtime actually processed; in
	// shared-monitor mode Result.Heartbeats reports it instead of the
	// monitor's all-application total.
	hbDelivered int

	// driver state (driver.go)
	stages       map[int]*task.Stage
	stageOf      map[int]*task.Stage // by task ID
	jobIdx       int
	activeStages map[int]*task.Stage
	submitted    map[int]bool
	runningAtt   map[int][]*executor.Run // live attempts by task ID; no empty entries
	liveAtt      int                     // Σ len(runningAtt), kept by setRunning
	speculatable map[int]*task.Task
	specTimer    simx.Timer
	appDone      bool
	appStart     float64
	appEnd       float64
	jobEnds      []float64

	// fault-tolerance state (faulttol.go)
	lastHB    map[string]float64 // last heartbeat time per node
	lostExecs map[string]bool    // nodes the driver has declared lost
	lastInc   map[string]int     // last seen executor incarnation per node
	failCount map[int]int        // genuine failures per task ID
	resubmits map[int]int        // rollback resubmissions per task ID
	bl        *blacklist         // nil unless Cfg.Blacklist.Enabled
	wdTimer   simx.Timer         // heartbeat-timeout watchdog
	inj       *faults.Injector   // nil unless Cfg.Faults is non-empty
	aborted   *AbortError

	// spot-preemption / graceful-drain state (preempt.go)
	preempted         map[string]bool           // notice delivered, not yet cleared by re-acquisition
	preemptRecs       []*PreemptionRecord       // notice→kill episodes, in notice order
	drainFlows        map[string][]*netsim.Flow // in-flight drain copies per doomed node
	drainRR           int                       // round-robin cursor over drain destinations
	preemptViolations []string                  // drain-protocol audit failures
	attemptDurSum     float64                   // Σ wall seconds of successful attempts
	attemptDurN       int                       // count behind attemptDurSum

	// crash-recovery state (recovery.go)
	wlog         *wal.Log    // nil unless WAL configured or plan crashes the driver
	crashed      bool        // driver is down; completions buffer in orphaned
	crashAt      float64     // virtual time of the current/last crash
	orphaned     []orphanEnd // completions that landed while the driver was down
	redelivering bool        // recovery is draining the orphan buffer right now
	dupSuccess   map[int]int // per task: duplicate successes drained across crash windows

	// counters
	SpecCopies        int
	MemKills          int
	TotalOOMs         int
	TotalCrash        int
	LaunchCount       int
	ExecutorsLost     int
	ExecutorsRejoined int
	FetchFailures     int
	Resubmissions     int
	DriverCrashes     int
	DriverRecoveries  int
	// Preemption counters (preempt.go): notices heard, kills observed,
	// kills that landed on a fully drained node, drain re-replication
	// volume, and announced losses exempted from failure accounting.
	PreemptNotices         int
	PreemptKills           int
	DrainsCompleted        int
	DrainBlocksMoved       int
	DrainBytesMoved        int64
	DrainBlocksSkipped     int
	DrainFetchRedirects    int
	PreemptLossesUncharged int
	// SpecLiveAtCrash records, per crash, how many speculative copies were
	// in flight at the instant the driver died (test observability for the
	// crash-during-speculation race).
	SpecLiveAtCrash []int
}

// NewRuntime builds a runtime over the cluster for the given scheduler.
// Executors are created lazily in Run, sized by the scheduler.
func NewRuntime(eng *simx.Engine, clu *cluster.Cluster, sched Scheduler, cfg Config) *Runtime {
	return NewRuntimeOn(eng, clu, sched, cfg, nil)
}

// NewRuntimeOn builds a runtime that shares sub's executors, cache and
// monitor with sibling applications (multi-tenant mode). A nil sub is the
// single-application path: the runtime owns its substrate and NewRuntimeOn
// behaves exactly like NewRuntime.
func NewRuntimeOn(eng *simx.Engine, clu *cluster.Cluster, sched Scheduler, cfg Config, sub *Substrate) *Runtime {
	cfg = cfg.withDefaults()
	if cfg.DriverNode == "" && len(clu.Nodes) > 0 {
		cfg.DriverNode = clu.Nodes[0].Name()
	}
	cfg.Exec.DriverNode = cfg.DriverNode
	cfg.Exec.Seed = cfg.Seed
	cfg.Exec.Tracer = cfg.Tracer
	if cr, ok := sched.(CacheRelocator); ok {
		cfg.Exec.RelocateCacheOnRemoteRead = cr.RelocatesCache()
	}
	rt := &Runtime{
		Eng:          eng,
		Clu:          clu,
		Cfg:          cfg,
		Cache:        executor.NewCacheTracker(),
		Execs:        make(map[string]*executor.Executor),
		sub:          sub,
		sched:        sched,
		stages:       make(map[int]*task.Stage),
		stageOf:      make(map[int]*task.Stage),
		activeStages: make(map[int]*task.Stage),
		submitted:    make(map[int]bool),
		runningAtt:   make(map[int][]*executor.Run),
		speculatable: make(map[int]*task.Task),
		lastHB:       make(map[string]float64),
		lostExecs:    make(map[string]bool),
		lastInc:      make(map[string]int),
		failCount:    make(map[int]int),
		resubmits:    make(map[int]int),
		dupSuccess:   make(map[int]int),
		preempted:    make(map[string]bool),
		drainFlows:   make(map[string][]*netsim.Flow),
	}
	if sub != nil {
		rt.Cache = sub.Cache
		rt.Execs = sub.Execs
		rt.Mon = sub.Mon
	}
	if cfg.Blacklist.Enabled {
		rt.bl = newBlacklist(eng, cfg.Blacklist)
	}
	sched.Bind(rt)
	return rt
}

// SetLaunchGate installs the tenant layer's per-node launch admission
// check (dynamic-allocation leases); CanRunOn consults it so both
// schedulers see non-leased nodes as unusable. Must be set before Start.
func (rt *Runtime) SetLaunchGate(gate func(node string) bool) { rt.gate = gate }

// SetSlotCap installs the tenant layer's application-wide slot budget (the
// FAIR share). Unlike the per-node gate it is consulted only at launch
// time, not in CanRunOn: the budget fluctuates every scheduling round, and
// folding it into node usability would make delay-scheduling locality
// state thrash. Must be set before Start.
func (rt *Runtime) SetSlotCap(fn func() bool) { rt.capFn = fn }

// SetReschedule replaces local scheduling rounds with fn — the tenant
// manager's global FAIR round. Must be set before Start.
func (rt *Runtime) SetReschedule(fn func()) { rt.rescheduleFn = fn }

// PlacementBroker arbitrates task placements for a federated driver.
// AdmitPlacement is consulted by Launch for every (task, node) the
// scheduler wants; returning false refuses the launch (the broker
// typically starts a claim and lets a later scheduling round retry once
// the claim commits). PlacementStarted reports the launch that a granted
// claim actually produced, binding the claim to the attempt.
type PlacementBroker interface {
	AdmitPlacement(t *task.Task, node string) bool
	PlacementStarted(t *task.Task, node string)
}

// SetPlacementBroker installs the federation layer's placement arbiter.
// Must be set before Start.
func (rt *Runtime) SetPlacementBroker(b PlacementBroker) { rt.broker = b }

// SetSharedFaults points the runtime at a substrate-owned fault injector
// so driver recovery can tell a partitioned node from a dead one. The
// injector's installation and crash routing stay with the substrate owner.
func (rt *Runtime) SetSharedFaults(inj *faults.Injector) { rt.inj = inj }

// reschedule triggers a scheduling round: the bound scheduler's own in
// single-application mode, the tenant manager's global round otherwise.
func (rt *Runtime) reschedule() {
	if rt.rescheduleFn != nil {
		rt.rescheduleFn()
		return
	}
	rt.sched.Schedule()
}

// notifyExecutorSetChanged tells a capable scheduler the usable executor
// set changed, so stale delay-scheduling state can be re-derived.
func (rt *Runtime) notifyExecutorSetChanged() {
	if esa, ok := rt.sched.(ExecutorSetAware); ok {
		esa.ExecutorSetChanged()
	}
}

// NotifyExecutorSetChanged is the exported hook the tenant layer calls
// when dynamic allocation grants or revokes this application's slots.
func (rt *Runtime) NotifyExecutorSetChanged() { rt.notifyExecutorSetChanged() }

// DeliverHeartbeat feeds one node report into this application's driver:
// loss detection bookkeeping plus the scheduler's resource view. In
// single-application mode the monitor calls it directly; in tenant mode
// the manager fans each heartbeat out to every active application. A
// crashed or finished driver ignores reports (its executors buffer their
// completions; monitoring state is rebuilt at recovery).
func (rt *Runtime) DeliverHeartbeat(node string, nm *monitor.NodeMetrics) {
	if rt.appDone || rt.crashed {
		return
	}
	rt.hbDelivered++
	rt.noteHeartbeat(node)
	rt.sched.Heartbeat(node, nm)
}

// NewDecision opens a placement-decision audit record scoped to this
// runtime's application and pool labels (empty labels leave the decision
// unscoped, as before). Schedulers open their per-offer audits through
// this instead of the collector directly so multi-tenant traces can tell
// whose task won the slot.
func (rt *Runtime) NewDecision(scheduler, node string) *tracing.Decision {
	d := rt.Cfg.Tracer.NewDecision(scheduler, node)
	if rt.Cfg.AppLabel != "" || rt.Cfg.PoolLabel != "" {
		d.SetScope(rt.Cfg.AppLabel, rt.Cfg.PoolLabel)
	}
	return d
}

// Done reports whether the application has completed or aborted.
func (rt *Runtime) Done() bool { return rt.appDone }

// Crashed reports whether the driver is currently down (crash window).
func (rt *Runtime) Crashed() bool { return rt.crashed }

// App returns the application this runtime is driving (nil before Start).
func (rt *Runtime) App() *task.Application { return rt.app }

// Aborted returns the structured abort error, or nil.
func (rt *Runtime) Aborted() *AbortError { return rt.aborted }

// Scheduler returns the bound scheduler.
func (rt *Runtime) Scheduler() Scheduler { return rt.sched }

// Injector returns the fault injector, or nil when no faults were
// configured. Experiments read its counters for reporting.
func (rt *Runtime) Injector() *faults.Injector { return rt.inj }

// WAL returns the run's write-ahead log (nil when none is kept).
func (rt *Runtime) WAL() *wal.Log { return rt.wlog }

// BlacklistUntil returns node's absolute blacklist-expiry virtual time (0
// when the node is not blacklisted or blacklisting is off) — a test hook
// for verifying that recovery restores deadlines rather than re-arming
// them.
func (rt *Runtime) BlacklistUntil(node string) float64 {
	if rt.bl == nil {
		return 0
	}
	return rt.bl.until[node]
}

// Result summarizes one application run.
type Result struct {
	App        *task.Application
	Scheduler  string
	Duration   float64 // seconds of simulated time
	JobEnds    []float64
	OOMs       int
	Crashes    int
	Evictions  int
	SpecCopies int
	MemKills   int
	Launches   int
	Heartbeats int
	Trace      *metrics.Trace

	// Fault-tolerance outcomes (all zero on fault-free runs).
	ExecutorsLost     int
	ExecutorsRejoined int
	FetchFailures     int
	Resubmissions     int
	NodesBlacklisted  int
	FailStops         int
	TaskFlakes        int
	DriverCrashes     int
	DriverRecoveries  int

	// Spot-preemption outcomes (all zero without SpotPreempt events).
	PreemptNotices         int
	PreemptKills           int
	DrainsCompleted        int
	DrainBlocksMoved       int
	DrainBytesMoved        int64
	DrainBlocksSkipped     int
	DrainFetchRedirects    int
	PreemptLossesUncharged int
	// SpecLiveAtCrash records, per driver crash, how many speculative
	// copies were in flight at the instant the driver died.
	SpecLiveAtCrash []int
	// Aborted is non-nil when the run ended in a job abort instead of
	// completing; Duration then measures time to the abort.
	Aborted *AbortError
}

// Run executes the application to completion and returns its Result. It
// panics if called twice on the same Runtime.
func (rt *Runtime) Run(app *task.Application) *Result {
	rt.Start(app)
	rt.Eng.RunUntil(rt.Cfg.MaxSimTime)
	if !rt.appDone && rt.Eng.Pending() > 0 {
		done := 0
		for _, t := range app.AllTasks() {
			if t.State == task.Finished {
				done++
			}
		}
		panic(fmt.Sprintf("spark: app %q exceeded MaxSimTime=%v (job %d/%d, %d/%d tasks done) — scheduler livelock?",
			app.Name, rt.Cfg.MaxSimTime, rt.jobIdx+1, len(app.Jobs), done, app.NumTasks()))
	}
	if !rt.appDone {
		panic(fmt.Sprintf("spark: app %q deadlocked at t=%.2f (job %d of %d)",
			app.Name, rt.Eng.Now(), rt.jobIdx+1, len(app.Jobs)))
	}
	return rt.BuildResult()
}

// Start boots the application's driver without driving the engine: it
// creates the substrate (single-application mode only), arms the periodic
// machinery, and submits job 0. Single-application callers use Run; a
// tenant manager calls Start per admitted application and runs the shared
// engine itself, collecting each Result via BuildResult once OnAppDone
// fires. It panics if called twice on the same Runtime.
func (rt *Runtime) Start(app *task.Application) {
	if rt.app != nil {
		panic("spark: Runtime.Start called twice")
	}
	if len(app.Jobs) == 0 {
		panic("spark: application with no jobs")
	}
	rt.app = app
	rt.appStart = rt.Eng.Now()
	rt.Cfg.Tracer.Bind(rt.Eng)
	for _, n := range rt.Clu.Nodes {
		rt.Cfg.Tracer.RegisterNode(n.Name(), n.Spec.Cores)
	}

	if rt.sub == nil {
		rt.ownsSubstrate = true

		// Executors, sized by the scheduler's policy.
		peers := rt.Execs
		for i, n := range rt.Clu.Nodes {
			cfg := rt.Cfg.Exec
			cfg.HeapBytes = rt.sched.HeapFor(n)
			cfg.Seed = rt.Cfg.Seed + uint64(i)*7919
			ex := executor.New(rt.Eng, rt.Clu, n, rt.Cache, peers, cfg)
			ex.OnRestart = func() {
				rt.notifyExecutorSetChanged()
				rt.reschedule()
			}
		}

		// Heartbeats drive scheduling rounds (and RUPAM's RM).
		rt.Mon = monitor.New(rt.Eng, rt.Clu, rt.Cfg.HeartbeatInterval)
		for name, ex := range rt.Execs {
			rt.Mon.RegisterProbe(name, ex)
		}
		rt.Mon.OnHeartbeat = func(node string, nm *monitor.NodeMetrics) {
			rt.DeliverHeartbeat(node, nm)
			rt.reschedule()
		}
		rt.Mon.Start()
	}

	// Fault injection (opt-in) and executor-loss detection. The watchdog
	// is always armed: with every node heartbeating on time it observes
	// nothing, so fault-free runs are unchanged. In shared-substrate mode
	// the injector (if any) belongs to the manager, which installs it once
	// over the shared executors and routes driver crashes itself.
	for _, n := range rt.Clu.Nodes {
		rt.lastHB[n.Name()] = rt.Eng.Now()
		// Seed incarnation tracking with the executors' current state: an
		// application attaching to a shared substrate after a node has
		// already restarted (spot churn before this app arrived) must not
		// mistake the node's first heartbeat for a fresh restart and kill
		// its own just-launched attempts there.
		if ex := rt.Execs[n.Name()]; ex != nil {
			rt.lastInc[n.Name()] = ex.Incarnation
		}
	}
	rt.wlog = rt.Cfg.WAL
	if rt.wlog != nil {
		// A configured log may predate this engine (the CLI opens the file
		// before the run is built); stamp its records with our clock.
		rt.wlog.SetClock(rt.Eng.Now)
	}
	if rt.ownsSubstrate && !rt.Cfg.Faults.Empty() {
		rt.inj = faults.NewInjector(rt.Eng, rt.Clu, rt.Execs)
		rt.Mon.Drop = rt.inj.Suppressed
		rt.inj.Collector = rt.Cfg.Tracer
		rt.inj.OnDriverCrash = rt.driverCrash
		rt.inj.OnSpotNotice = rt.PreemptNotice
		rt.inj.OnSpotKill = rt.SpotKill
		if rt.wlog == nil && rt.Cfg.Faults.HasKind(faults.DriverCrash) {
			// A crash without a WAL would be unrecoverable; keep an
			// in-memory log so the plan's DriverCrash events can replay.
			rt.wlog = wal.New(nil, wal.Options{Clock: rt.Eng.Now})
		}
		rt.inj.Install(rt.Cfg.Faults)
	}
	rt.armWatchdog()

	// Utilization tracing.
	if rt.ownsSubstrate && rt.Cfg.SampleInterval > 0 {
		rt.Rec = metrics.NewRecorder(rt.Eng, rt.Clu, rt.Execs, rt.Cfg.SampleInterval)
		rt.Rec.Start()
	}

	// Speculation scan.
	rt.scheduleSpeculationScan()

	// Go.
	rt.submitJob(0)
}

// BuildResult assembles the run's Result. Run calls it after the engine
// drains; tenant managers call it per application after OnAppDone.
func (rt *Runtime) BuildResult() *Result {
	app := rt.app
	heartbeats := rt.hbDelivered
	if rt.ownsSubstrate {
		heartbeats = rt.Mon.Heartbeats
	}
	res := &Result{
		App:        app,
		Scheduler:  rt.sched.Name(),
		Duration:   rt.appEnd - rt.appStart,
		JobEnds:    rt.jobEnds,
		Evictions:  rt.Cache.Evictions,
		SpecCopies: rt.SpecCopies,
		MemKills:   rt.MemKills,
		Launches:   rt.LaunchCount,
		Heartbeats: heartbeats,

		ExecutorsLost:     rt.ExecutorsLost,
		ExecutorsRejoined: rt.ExecutorsRejoined,
		FetchFailures:     rt.FetchFailures,
		Resubmissions:     rt.Resubmissions,
		DriverCrashes:     rt.DriverCrashes,
		DriverRecoveries:  rt.DriverRecoveries,
		SpecLiveAtCrash:   rt.SpecLiveAtCrash,
		Aborted:           rt.aborted,

		PreemptNotices:         rt.PreemptNotices,
		PreemptKills:           rt.PreemptKills,
		DrainsCompleted:        rt.DrainsCompleted,
		DrainBlocksMoved:       rt.DrainBlocksMoved,
		DrainBytesMoved:        rt.DrainBytesMoved,
		DrainBlocksSkipped:     rt.DrainBlocksSkipped,
		DrainFetchRedirects:    rt.DrainFetchRedirects,
		PreemptLossesUncharged: rt.PreemptLossesUncharged,
	}
	if rt.bl != nil {
		res.NodesBlacklisted = rt.bl.NodesBlacklisted
	}
	for _, ex := range rt.Execs {
		res.OOMs += ex.OOMs
		res.Crashes += ex.Crashes
		res.FailStops += ex.FailStops
		res.TaskFlakes += ex.Flakes
	}
	if rt.Rec != nil {
		res.Trace = rt.Rec.Trace()
	}
	return res
}
