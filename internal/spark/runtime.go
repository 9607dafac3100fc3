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
	// SpeculationMaxPerStage caps in-flight speculative copies per stage
	// (0 = unlimited, the historical behavior). Under gray failures an
	// uncapped speculation pass can clone most of a stage onto the
	// healthy nodes at once; real Spark bounds the wave.
	SpeculationMaxPerStage int
	// HeartbeatInterval is the worker heartbeat period (default 1 s).
	HeartbeatInterval float64
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
	// to one without the fault layer. Only a runtime that builds its own
	// substrate reads it: a shared substrate's owner installs its faults.
	Faults *faults.Schedule
	// WAL, when non-nil, receives every driver state transition as an
	// append-only write-ahead log; crash recovery replays it. Left nil, an
	// in-memory log is created automatically when the fault plan contains
	// a DriverCrash (a crash without a WAL would be unrecoverable), and no
	// log is kept otherwise.
	WAL *wal.Log
	// SampleInterval is the utilization-trace sampling period in seconds;
	// the trace is recorded only when it is positive.
	SampleInterval float64
	// MaxSimTime aborts (panics) a run whose virtual clock exceeds this
	// many seconds — a watchdog against scheduler livelocks (default
	// 86400, one simulated day).
	MaxSimTime float64
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
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 1
	}
	if c.HeartbeatTimeout == 0 {
		c.HeartbeatTimeout = 10
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 86400
	}
	return c
}

// CacheRelocator is the part of the Scheduler contract that decides cache
// relocation: a scheduler that migrates tasks deliberately wants cached
// partitions to follow them.
type CacheRelocator interface {
	RelocatesCache() bool
}

// ExecutorSetAware is the part of the Scheduler contract told when the set
// of usable executors changes — a node is lost or rejoins, a crashed
// worker restarts, or dynamic allocation grants/revokes the application's
// slots on a node. Schedulers whose pending queues carry time-based state
// keyed to that set (the default scheduler's delay-scheduling level and
// timer) re-derive it here.
type ExecutorSetAware interface {
	ExecutorSetChanged()
}

// Scheduler is the task-placement policy together with the executor
// policy that comes with it (heap sizing, cache relocation). The Runtime
// notifies it of schedulable work and cluster events; the scheduler
// responds by calling Runtime.Launch. A substrate asks an unbound
// scheduler only HeapFor and RelocatesCache.
type Scheduler interface {
	CacheRelocator
	ExecutorSetAware
	ExecutorLossAware
	RecoveryAware

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
	// PendingTasks counts queued tasks still genuinely pending: the
	// tenant layer's FAIR demand and the chaos queue-drain check.
	PendingTasks() int
}

// Runtime wires a cluster, an application, and a scheduler together and
// runs the app to completion on the simulation engine.
type Runtime struct {
	Eng *simx.Engine
	Clu *cluster.Cluster
	Cfg Config
	// Cache, Mon and Execs come from a shared substrate at construction,
	// or from the runtime's own one in Start; they are nil in between.
	Cache *executor.CacheTracker
	Mon   *monitor.Monitor
	Execs map[string]*executor.Executor
	Rec   *metrics.Recorder

	// execAt caches Execs by node index in Clu.Nodes, filled on first
	// use: a substrate builds each node's executor once and never
	// replaces it.
	execAt []*executor.Executor

	sched Scheduler
	app   *task.Application

	// sub is the substrate this runtime is attached to: handed in by a
	// multi-application owner (the tenant manager or the federation
	// harness), which runs the engine and steers the runtime through
	// hooks, or built in Start. ownsSubstrate marks the classic
	// single-application path, where the runtime creates, fault-injects
	// and tears down its substrate itself.
	sub           *Substrate
	ownsSubstrate bool
	hooks         Hooks
	// hbDelivered counts heartbeats this runtime actually processed, which
	// Result.Heartbeats reports: a shared monitor's total counts every
	// application's.
	hbDelivered int

	// driver state (driver.go)
	stages       map[int]*task.Stage
	stageOf      taskStages // by task ID, for the submitted jobs
	jobIdx       int
	activeStages map[int]*task.Stage
	submitted    map[int]bool
	runningAtt   map[int][]*executor.Run // live attempts by task ID; no empty entries
	liveAtt      int                     // Σ len(runningAtt), kept by setRunning
	speculatable []*task.Task            // straggler set by ascending ID; copied on change
	specDurs     []float64               // scanForStragglers scratch
	specStages   []*task.Stage           // scanForStragglers scratch
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

	// Counters is the run's accounting; BuildResult copies it whole.
	Counters
}

// Counters is the driver's accounting. The embedded wal.Counters are the
// part the write-ahead log covers, so crash recovery restores them from
// the replayed fold; the rest count events the log does not record.
type Counters struct {
	wal.Counters
	MemKills         int
	DriverCrashes    int
	DriverRecoveries int
	// Preemption counters (preempt.go): notices heard, kills observed,
	// kills that landed on a fully drained node, drain re-replication
	// volume, and announced losses exempted from failure accounting.
	PreemptNotices         int
	PreemptKills           int
	DrainsCompleted        int
	DrainBlocksMoved       int
	DrainBytesMoved        int64
	DrainFetchRedirects    int
	PreemptLossesUncharged int
	// SpecLiveAtCrash records, per driver crash, how many speculative
	// copies were in flight at the instant the driver died.
	SpecLiveAtCrash []int
}

// Hooks is how the owner of a shared substrate (the tenant manager, a
// federation driver) steers one application's runtime. Every field is
// optional, and the zero Hooks is a single-application run. Hooks are
// fixed at construction.
type Hooks struct {
	// CanLaunch is the per-node launch admission (dynamic-allocation
	// leases). CanRunOn consults it, so both schedulers see a refused
	// node as unusable.
	CanLaunch func(node string) bool
	// UnderCap reports whether the application-wide slot budget (the
	// FAIR share) has room. Unlike CanLaunch it is consulted only at
	// launch time, not in CanRunOn: the budget moves every scheduling
	// round, and folding it into node usability would make
	// delay-scheduling locality state thrash.
	UnderCap func() bool
	// Reschedule replaces local scheduling rounds (the tenant manager's
	// global FAIR round).
	Reschedule func()
	// Broker arbitrates placements for a federated driver.
	Broker PlacementBroker
	// AttemptEnded observes every attempt termination (success, loser
	// kill, failure) after the runtime's own accounting; a federation
	// driver releases the attempt's slot claim here.
	AttemptEnded func(t *task.Task, node string)
	// Recovered fires at the end of driver crash recovery with the state
	// the recovery folded from the WAL, after survivors are re-adopted
	// and orphans redelivered.
	Recovered func(s *wal.State)
	// Done fires once when the application completes or aborts.
	Done func()
}

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

// NewRuntime builds a single-application runtime over the cluster for the
// given scheduler. Its executors are created in Start, sized by the
// scheduler.
func NewRuntime(eng *simx.Engine, clu *cluster.Cluster, sched Scheduler, cfg Config) *Runtime {
	return NewRuntimeOn(eng, clu, sched, cfg, nil, Hooks{})
}

// NewRuntimeOn builds a runtime that shares sub's executors, cache,
// monitor and fault injector with sibling applications (multi-tenant
// mode), steered by hooks. A nil sub is the single-application path: the
// runtime builds its own substrate in Start.
func NewRuntimeOn(eng *simx.Engine, clu *cluster.Cluster, sched Scheduler, cfg Config, sub *Substrate, hooks Hooks) *Runtime {
	cfg = cfg.withDefaults()
	rt := &Runtime{
		Eng:          eng,
		Clu:          clu,
		Cfg:          cfg,
		sub:          sub,
		hooks:        hooks,
		sched:        sched,
		stages:       make(map[int]*task.Stage),
		activeStages: make(map[int]*task.Stage),
		submitted:    make(map[int]bool),
		runningAtt:   make(map[int][]*executor.Run),
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
		rt.attachTo(sub)
	}
	if cfg.Blacklist.Enabled {
		rt.bl = newBlacklist(eng)
	}
	sched.Bind(rt)
	return rt
}

// attachTo makes sub this runtime's substrate and subscribes it to sub's
// node events.
func (rt *Runtime) attachTo(sub *Substrate) {
	rt.sub = sub
	rt.Cache, rt.Execs, rt.Mon = sub.Cache, sub.Execs, sub.Mon
	sub.attach(rt)
}

// reschedule triggers a scheduling round: the bound scheduler's own in
// single-application mode, the tenant manager's global round otherwise.
func (rt *Runtime) reschedule() {
	if rt.hooks.Reschedule != nil {
		rt.hooks.Reschedule()
		return
	}
	rt.sched.Schedule()
}

// DeliverHeartbeat feeds one node report into this application's driver:
// loss detection bookkeeping plus the scheduler's resource view. The
// substrate fans each heartbeat out to every attached application. A
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

// Scheduler returns the bound scheduler.
func (rt *Runtime) Scheduler() Scheduler { return rt.sched }

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
	Heartbeats int
	Trace      *metrics.Trace
	// Counters is the driver's accounting (all fault-tolerance and
	// preemption outcomes are zero on fault-free runs).
	Counters
	// Executor-side fault outcomes.
	FailStops  int
	TaskFlakes int
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
// engine itself, collecting each Result via BuildResult once its Done
// hook fires. It panics if called twice on the same Runtime.
func (rt *Runtime) Start(app *task.Application) {
	if rt.app != nil {
		panic("spark: Runtime.Start called twice")
	}
	if len(app.Jobs) == 0 {
		panic("spark: application with no jobs")
	}
	rt.app = app
	rt.stageOf = newTaskStages(app)
	rt.appStart = rt.Eng.Now()
	rt.Cfg.Tracer.Bind(rt.Eng)
	for _, n := range rt.Clu.Nodes {
		rt.Cfg.Tracer.RegisterNode(n.Name(), n.Spec.Cores)
	}

	if rt.sub == nil {
		// Executors sized by the scheduler's policy; heartbeats drive
		// scheduling rounds (and RUPAM's RM).
		rt.ownsSubstrate = true
		rt.attachTo(NewSubstrate(rt.Eng, rt.Clu, SubstrateOptions{
			Seed:              rt.Cfg.Seed,
			Scheduler:         rt.sched,
			HeartbeatInterval: rt.Cfg.HeartbeatInterval,
			Tracer:            rt.Cfg.Tracer,
			Round:             rt.reschedule,
		}))
		rt.Mon.Start()
	}

	// Fault injection (opt-in) and executor-loss detection. The watchdog
	// is always armed: with every node heartbeating on time it observes
	// nothing, so fault-free runs are unchanged. On a shared substrate
	// the injector (if any) belongs to the owner, which installs it once
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
		inj := faults.NewInjector(rt.Eng, rt.Clu, rt.Execs)
		rt.sub.Inj = inj
		rt.Mon.Drop = inj.Suppressed
		inj.Collector = rt.Cfg.Tracer
		inj.OnDriverCrash = rt.driverCrash
		inj.OnSpotNotice = rt.PreemptNotice
		inj.OnSpotKill = rt.SpotKill
		if rt.wlog == nil && rt.Cfg.Faults.HasKind(faults.DriverCrash) {
			// A crash without a WAL would be unrecoverable; keep an
			// in-memory log so the plan's DriverCrash events can replay.
			rt.wlog = wal.New(nil, wal.Options{Clock: rt.Eng.Now})
		}
		inj.Install(rt.Cfg.Faults)
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
// drains; tenant managers call it per application from its Done hook.
func (rt *Runtime) BuildResult() *Result {
	app := rt.app
	res := &Result{
		App:        app,
		Scheduler:  rt.sched.Name(),
		Duration:   rt.appEnd - rt.appStart,
		JobEnds:    rt.jobEnds,
		Evictions:  rt.Cache.Evictions,
		Heartbeats: rt.hbDelivered,
		Counters:   rt.Counters,
		Aborted:    rt.aborted,
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
