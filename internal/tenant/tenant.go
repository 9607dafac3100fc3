// Package tenant is the multi-tenant workload manager: it runs a seeded
// open-loop stream of SparkBench applications concurrently on one shared
// simulated cluster, arbitrating between them with Spark-style FAIR pools
// (weighted shares with minShare guarantees, FIFO within a pool), a
// bounded admission queue, and per-application dynamic executor
// allocation. The heterogeneity schedulers keep deciding *which node* a
// task runs on; this layer decides *which application's task* gets the
// next freed slot and *which nodes* each application may use at all.
package tenant

import (
	"cmp"
	"fmt"
	"slices"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/executor"
	"rupam/internal/faults"
	"rupam/internal/hdfs"
	"rupam/internal/monitor"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/tracing"
	"rupam/internal/wal"
	"rupam/internal/workloads"
)

// IDSpan is the identifier namespace each application owns: task, stage,
// job and RDD IDs of application i live in [(i+1)·IDSpan, (i+2)·IDSpan).
// Disjoint RDD ranges make the shared cache registry collision-free and
// let the isolation audit attribute every cached partition to its owner.
const IDSpan = 1 << 20

// PoolConfig declares one FAIR pool (fairscheduler.xml in miniature).
type PoolConfig struct {
	// Name identifies the pool; applications are assigned by the arrival
	// mix.
	Name string
	// Weight is the pool's share of capacity beyond minShares (default 1).
	Weight float64
	// MinShare is the core count the pool is guaranteed before weighted
	// sharing distributes the rest (default 0).
	MinShare int
}

// DynallocConfig tunes per-application dynamic executor allocation.
type DynallocConfig struct {
	// InitialExecs is the lease count an application starts with
	// (spark.dynamicAllocation.initialExecutors; default 1).
	InitialExecs int
	// ExecCores is the lease grant granularity in cores — the simulated
	// equivalent of one executor process (default 8).
	ExecCores int
	// BacklogTimeout is how long a scheduler backlog must persist before
	// the application's lease count doubles (default 2 s).
	BacklogTimeout float64
	// IdleTimeout releases a lease whose node ran none of the
	// application's tasks for this long (default 10 s).
	IdleTimeout float64
	// Interval is the allocation evaluation period (default 1 s).
	Interval float64
}

func (d DynallocConfig) withDefaults() DynallocConfig {
	if d.InitialExecs == 0 {
		d.InitialExecs = 1
	}
	if d.ExecCores == 0 {
		d.ExecCores = 8
	}
	if d.BacklogTimeout == 0 {
		d.BacklogTimeout = 2
	}
	if d.IdleTimeout == 0 {
		d.IdleTimeout = 10
	}
	if d.Interval == 0 {
		d.Interval = 1
	}
	return d
}

// Config parameterizes one multi-tenant run.
type Config struct {
	// Scheduler is "spark" or "rupam"; every application in the run uses
	// the same placement policy (the experiment compares whole runs).
	Scheduler string
	// Seed drives every random draw in the run: arrival times, workload
	// mix, framework randomness.
	Seed uint64
	// Pools are the FAIR pools; empty takes DefaultPools.
	Pools []PoolConfig
	// Arrivals parameterizes the open-loop generator; zero fields take
	// defaults (see ArrivalConfig).
	Arrivals ArrivalConfig
	// MaxConcurrentApps bounds simultaneously running applications
	// (admission control; default 4).
	MaxConcurrentApps int
	// MaxPendingApps bounds the admission queue; an arrival past it is
	// rejected, never silently dropped (default 8).
	MaxPendingApps int
	// Dynalloc tunes dynamic executor allocation.
	Dynalloc DynallocConfig
	// Spark carries per-application framework overrides.
	Spark spark.Config
	// RUPAM carries scheduler tunables for Scheduler=="rupam".
	RUPAM core.Config
	// Faults, when non-empty, is installed once over the shared cluster;
	// DriverCrash events are routed to the oldest running application, and
	// SpotPreempt notices/kills fan out to every running application.
	Faults *faults.Schedule
	// Elastic turns the fixed cluster into a priced instance market with
	// pilot-job acquisition and cost metering (off by default).
	Elastic ElasticConfig
	// Tracer, when non-nil, records the structured multi-application
	// trace (app lifecycle, leases, pool-scoped decisions).
	Tracer *tracing.Collector
	// PrivateCharDB gives each RUPAM application its own characteristics
	// database instead of the shared (externally persisted) one,
	// disabling cross-application warm-starts.
	PrivateCharDB bool
	// MaxSimTime panics the run if the virtual clock exceeds it
	// (default 14400, four simulated hours).
	MaxSimTime float64
}

func (c Config) withDefaults() Config {
	if c.Scheduler == "" {
		c.Scheduler = "spark"
	}
	if len(c.Pools) == 0 {
		c.Pools = DefaultPools()
	}
	c.Arrivals = c.Arrivals.withDefaults()
	if c.MaxConcurrentApps == 0 {
		c.MaxConcurrentApps = 4
	}
	if c.MaxPendingApps == 0 {
		c.MaxPendingApps = 8
	}
	c.Dynalloc = c.Dynalloc.withDefaults()
	if c.Elastic.Enabled {
		c.Elastic = c.Elastic.withDefaults()
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 14400
	}
	return c
}

// DefaultPools is the three-tenant layout the tenancy experiment uses:
// an interactive analytics pool with a capacity guarantee, an ML training
// pool, and a best-effort batch pool.
func DefaultPools() []PoolConfig {
	return []PoolConfig{
		{Name: "analytics", Weight: 2, MinShare: 32},
		{Name: "ml", Weight: 1, MinShare: 16},
		{Name: "batch", Weight: 1, MinShare: 0},
	}
}

// appState is one application's full lifecycle record.
type appState struct {
	idx      int // arrival index; fixes the ID namespace and FIFO order
	label    string
	workload string
	pool     string
	params   workloads.Params

	arriveAt float64
	startAt  float64
	endAt    float64

	rejected bool
	started  bool
	done     bool

	base       int // ID namespace offset: (idx+1)·IDSpan
	app        *task.Application
	rt         *spark.Runtime
	slotTarget int // FAIR share, recomputed every scheduling round
	liveNow    int // fairRound scratch: live attempts this round
	demandNow  int // fairRound scratch: live + pending this round

	leases    map[string]int     // node → leased cores
	lastBusy  map[string]float64 // node → last time the app ran there
	lastScale float64            // last successful scale-up

	res *spark.Result
}

// Manager owns the shared substrate and every application lifecycle.
type Manager struct {
	cfg Config

	eng *simx.Engine
	clu *cluster.Cluster
	sub *spark.Substrate
	inj *faults.Injector

	sharedDB *core.CharDB // non-nil for shared-CharDB RUPAM runs

	capacity  int // total cluster cores
	nodeOrder []string

	arrivals    []arrival
	nextArrival int

	apps    []*appState // every arrival, in arrival order
	running []*appState
	pending []*appState

	arrived, admitted, rejectedN int

	scheduling, dirty bool
	dynTimer          simx.Timer
	finished          bool
	finishedAt        float64

	leasedNow      map[string]int // node → currently leased cores
	leaseHighWater map[string]int // node → max cores ever leased at once
	peakLeased     int            // max total leased cores at once

	// elastic substrate (elastic.go)
	spotSet       map[string]bool    // node → billed as spot
	draining      map[string]bool    // preemption notice heard, kill pending
	held          map[string]bool    // instance currently acquired
	holdStart     map[string]float64 // node → acquisition time
	holdIdle      map[string]float64 // node → last time any lease was held
	cloudCost     float64            // metered $ across closed holds
	acquisitions  int
	denials       int
	reqWanted     int  // outstanding instance shortfall (level-triggered)
	reqAttempt    int  // consecutive capacity denials
	reqPending    bool // a grant batch or retry is already scheduled
	backoffDelays []float64
	spotNotices   int
	spotKills     int

	violations []string
}

// NewManager validates and captures the configuration; Run does the work.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	if cfg.Scheduler != "spark" && cfg.Scheduler != "rupam" {
		panic(fmt.Sprintf("tenant: unknown scheduler %q", cfg.Scheduler))
	}
	for _, mx := range cfg.Arrivals.Mix {
		if !workloads.Known(mx.Workload) {
			panic(fmt.Sprintf("tenant: unknown workload %q in arrival mix", mx.Workload))
		}
	}
	return &Manager{cfg: cfg}
}

// Run executes the whole multi-tenant scenario on a fresh engine and
// returns its report. It panics if the run exceeds MaxSimTime (livelock
// watchdog), like the single-application runtime.
func (m *Manager) Run() *Report {
	m.eng = simx.NewEngine()
	m.clu = cluster.New(m.eng)
	cluster.NewHydra(m.clu)

	m.leasedNow = make(map[string]int)
	m.leaseHighWater = make(map[string]int)
	m.initElastic()
	for _, n := range m.clu.Nodes {
		m.capacity += n.Spec.Cores
		m.nodeOrder = append(m.nodeOrder, n.Name())
	}

	m.cfg.Tracer.Bind(m.eng)
	for _, n := range m.clu.Nodes {
		m.cfg.Tracer.RegisterNode(n.Name(), n.Spec.Cores)
	}

	m.buildSubstrate()
	if m.cfg.Scheduler == "rupam" && !m.cfg.PrivateCharDB {
		m.sharedDB = core.NewCharDB()
	}

	m.arrivals = drawArrivals(m.cfg.Seed, m.cfg.Arrivals)
	for i := range m.arrivals {
		i := i
		m.eng.Schedule(m.arrivals[i].at, func() { m.onArrival(i) })
	}

	m.sub.Mon.Start()
	m.armDynalloc()

	m.eng.RunUntil(m.cfg.MaxSimTime)
	if !m.finished {
		panic(fmt.Sprintf("tenant: run exceeded MaxSimTime=%v with %d running and %d queued apps — livelock?",
			m.cfg.MaxSimTime, len(m.running), len(m.pending)))
	}
	m.checkEndState()
	return m.buildReport()
}

// SubstrateOptions parameterizes BuildSubstrate — the knobs the tenant
// manager and the federation harness share when standing up one executor
// set for many concurrently scheduling drivers.
type SubstrateOptions struct {
	// Seed derives per-node executor seeds (Seed + i*7919 over the
	// cluster's node order).
	Seed uint64
	// Exec is the base per-node executor configuration; HeapBytes, Seed,
	// DriverNode and Tracer are filled per node.
	Exec executor.Config
	// HeapFor sizes each node's executor heap; nil uses a static 14 GB.
	HeapFor func(*cluster.Node) int64
	// HeartbeatInterval is the monitor period; 0 means 1 s.
	HeartbeatInterval float64
	// RelocateCache mirrors the RUPAM cache-relocation policy.
	RelocateCache bool
	Tracer        *tracing.Collector
	// OnRestart fires when any executor restarts (after a crash window);
	// the owner fans executor-set-change notifications to its drivers.
	OnRestart func()
	// OnHeartbeat observes every node heartbeat; the owner fans it to its
	// drivers and runs a scheduling round.
	OnHeartbeat func(node string, nm *monitor.NodeMetrics)
}

// BuildSubstrate creates the shared executors, cache registry and
// heartbeat monitor — the per-cluster state every application runtime
// attaches to — without starting the monitor. Fault injection stays with
// the caller: it owns crash routing.
func BuildSubstrate(eng *simx.Engine, clu *cluster.Cluster, o SubstrateOptions) *spark.Substrate {
	heapFor := o.HeapFor
	if heapFor == nil {
		heapFor = func(*cluster.Node) int64 { return 14 * cluster.GB }
	}
	cache := executor.NewCacheTracker()
	execs := make(map[string]*executor.Executor)
	execSeed := o.Seed*31 + 7
	for i, n := range clu.Nodes {
		ecfg := o.Exec
		ecfg.HeapBytes = heapFor(n)
		ecfg.Seed = execSeed + uint64(i)*7919
		ecfg.DriverNode = clu.Nodes[0].Name()
		ecfg.Tracer = o.Tracer
		ecfg.RelocateCacheOnRemoteRead = o.RelocateCache
		ex := executor.New(eng, clu, n, cache, execs, ecfg)
		ex.OnRestart = o.OnRestart
	}
	hb := o.HeartbeatInterval
	if hb <= 0 {
		hb = 1
	}
	mon := monitor.New(eng, clu, hb)
	for name, ex := range execs {
		mon.RegisterProbe(name, ex)
	}
	mon.OnHeartbeat = o.OnHeartbeat
	return &spark.Substrate{Execs: execs, Cache: cache, Mon: mon}
}

// buildSubstrate creates the shared executors, cache registry, heartbeat
// monitor and (optional) fault injector — the per-cluster state every
// application's runtime attaches to.
func (m *Manager) buildSubstrate() {
	m.sub = BuildSubstrate(m.eng, m.clu, SubstrateOptions{
		Seed:              m.cfg.Seed,
		Exec:              m.cfg.Spark.Exec,
		HeapFor:           m.heapPolicy(),
		HeartbeatInterval: m.heartbeatInterval(),
		RelocateCache:     m.cfg.Scheduler == "rupam",
		Tracer:            m.cfg.Tracer,
		OnRestart: func() {
			for _, a := range m.activeApps() {
				a.rt.NotifyExecutorSetChanged()
			}
			m.ScheduleAll()
		},
		OnHeartbeat: func(node string, nm *monitor.NodeMetrics) {
			for _, a := range m.activeApps() {
				a.rt.DeliverHeartbeat(node, nm)
			}
			m.ScheduleAll()
		},
	})

	if !m.cfg.Faults.Empty() {
		m.inj = faults.NewInjector(m.eng, m.clu, m.sub.Execs)
		m.sub.Mon.Drop = m.inj.Suppressed
		m.inj.Collector = m.cfg.Tracer
		m.inj.OnDriverCrash = m.routeDriverCrash
		m.inj.OnSpotNotice = m.onSpotNotice
		m.inj.OnSpotKill = m.onSpotKill
		m.inj.Install(m.cfg.Faults)
	}
}

// heapPolicy sizes the shared node-level executors the way the run's
// scheduler would size its own: RUPAM's memory-aware per-node heap, or
// stock Spark's one static size everywhere.
func (m *Manager) heapPolicy() func(*cluster.Node) int64 {
	if m.cfg.Scheduler == "rupam" {
		sizer := core.New(m.cfg.RUPAM)
		return sizer.HeapFor
	}
	static := m.cfg.Spark.StaticHeapBytes
	if static == 0 {
		static = 14 * cluster.GB
	}
	return func(*cluster.Node) int64 { return static }
}

func (m *Manager) heartbeatInterval() float64 {
	if m.cfg.Spark.HeartbeatInterval > 0 {
		return m.cfg.Spark.HeartbeatInterval
	}
	return 1
}

// activeApps returns the running applications in arrival order — the
// deterministic fan-out order for heartbeats and notifications.
func (m *Manager) activeApps() []*appState {
	out := make([]*appState, 0, len(m.running))
	out = append(out, m.running...)
	slices.SortFunc(out, func(a, b *appState) int { return cmp.Compare(a.idx, b.idx) })
	return out
}

// onArrival is the admission-control decision point: start immediately,
// queue, or reject — every arrival lands in exactly one bucket.
func (m *Manager) onArrival(i int) {
	ar := m.arrivals[i]
	m.nextArrival = i + 1
	a := &appState{
		idx:      i,
		label:    fmt.Sprintf("app%d-%s", i, ar.workload),
		workload: ar.workload,
		pool:     ar.pool,
		params:   ar.params,
		arriveAt: m.eng.Now(),
		base:     (i + 1) * IDSpan,
		leases:   make(map[string]int),
		lastBusy: make(map[string]float64),
	}
	m.apps = append(m.apps, a)
	m.arrived++
	m.cfg.Tracer.AppArrived(a.label, a.pool, a.workload)
	switch {
	case len(m.running) < m.cfg.MaxConcurrentApps && len(m.pending) == 0:
		m.admitted++
		m.startApp(a)
	case len(m.pending) < m.cfg.MaxPendingApps:
		m.admitted++
		m.pending = append(m.pending, a)
		m.cfg.Tracer.AppAdmitted(a.label, a.pool, len(m.pending))
	default:
		m.rejectedN++
		a.rejected = true
		m.cfg.Tracer.AppRejected(a.label, a.pool, "pending queue full")
	}
	m.maybeFinish()
}

// buildSeed derives an application's construction seed from the run seed
// and the workload name only — not the arrival index — so every instance
// of a workload shares one logical dataset and plan, and the isolated
// baseline run for slowdown accounting is the same application.
func buildSeed(seed uint64, workload string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(workload); i++ {
		h ^= uint64(workload[i])
		h *= 1099511628211
	}
	return seed*2654435761 + h
}

// BuildApp constructs (and namespaces) the application an arrival would
// run — exported so the experiment's isolated-baseline runs execute the
// exact same plan the tenant run did.
func BuildApp(clu *cluster.Cluster, seed uint64, workload string, p workloads.Params, base int) *task.Application {
	bs := buildSeed(seed, workload)
	store := hdfs.NewStore(clu.NodeNames(), 2, bs)
	if p.Seed == 0 {
		p.Seed = bs*7 + 42
	}
	app := workloads.Build(workload, store, p)
	Renumber(app, base)
	return app
}

// startApp boots one admitted application's driver on the shared engine.
func (m *Manager) startApp(a *appState) {
	a.started = true
	a.startAt = m.eng.Now()
	a.lastScale = a.startAt

	app := BuildApp(m.clu, m.cfg.Seed, a.workload, a.params, a.base)
	app.Name = a.label
	a.app = app

	var sched spark.Scheduler
	if m.cfg.Scheduler == "rupam" {
		if m.sharedDB != nil {
			sched = core.NewWithDB(m.cfg.RUPAM, m.sharedDB)
		} else {
			sched = core.New(m.cfg.RUPAM)
		}
	} else {
		sched = spark.NewDefaultScheduler()
	}

	cfg := m.cfg.Spark
	cfg.Faults = nil // the injector belongs to the manager
	cfg.WAL = nil
	cfg.Seed = m.cfg.Seed*31 + 7 + uint64(a.idx)*1013
	cfg.Tracer = m.cfg.Tracer
	cfg.AppLabel = a.label
	cfg.PoolLabel = a.pool
	cfg.SampleInterval = -1
	cfg.MaxSimTime = m.cfg.MaxSimTime
	if m.cfg.Faults.HasKind(faults.DriverCrash) {
		// A routed driver crash needs a log to replay; keep one in memory
		// per application, exactly like the single-app auto-WAL.
		cfg.WAL = wal.New(nil, wal.Options{Clock: m.eng.Now})
	}

	rt := spark.NewRuntimeOn(m.eng, m.clu, sched, cfg, m.sub)
	rt.SetLaunchGate(func(node string) bool { return a.leases[node] > 0 })
	rt.SetSlotCap(func() bool { return rt.LiveAttempts() < a.slotTarget })
	rt.SetReschedule(m.ScheduleAll)
	if m.inj != nil {
		rt.SetSharedFaults(m.inj)
	}
	rt.OnAppDone = func() { m.appFinished(a) }
	a.rt = rt

	m.running = append(m.running, a)
	m.grantInitial(a)
	m.cfg.Tracer.AppStarted(a.label, a.pool, a.startAt-a.arriveAt)
	rt.Start(app)
	m.ScheduleAll()
}

// appFinished collects a completed (or aborted) application, returns its
// leases and cached state to the cluster, and starts queued work.
func (m *Manager) appFinished(a *appState) {
	a.done = true
	a.endAt = m.eng.Now()
	a.res = a.rt.BuildResult()
	m.releaseAllLeases(a, "app-done")
	for i, r := range m.running {
		if r == a {
			m.running = append(m.running[:i], m.running[i+1:]...)
			break
		}
	}
	m.cfg.Tracer.AppFinished(a.label, a.pool, a.endAt-a.startAt, a.res.Aborted != nil)
	m.tryStartPending()
	m.maybeFinish()
	m.ScheduleAll()
}

// tryStartPending drains the admission queue into free concurrency slots
// (FIFO).
func (m *Manager) tryStartPending() {
	for len(m.running) < m.cfg.MaxConcurrentApps && len(m.pending) > 0 {
		a := m.pending[0]
		m.pending = m.pending[1:]
		m.startApp(a)
	}
}

// maybeFinish shuts the shared machinery down once every arrival has been
// resolved and no application is running or queued — the point after
// which the engine drains and Run returns.
func (m *Manager) maybeFinish() {
	if m.finished || m.nextArrival < len(m.arrivals) || len(m.running) > 0 || len(m.pending) > 0 {
		return
	}
	m.finished = true
	m.finishedAt = m.eng.Now()
	m.sub.Mon.Stop()
	m.dynTimer.Cancel()
	// Close out the market: every still-held instance is released and its
	// bill settled, so the report's cost covers the whole run.
	for _, node := range m.nodeOrder {
		m.releaseInstance(node, "run-done")
	}
}

// routeDriverCrash directs a DriverCrash fault at the oldest running
// application that is currently up — deterministic, and exercises one
// app's crash/recovery while its siblings keep running.
func (m *Manager) routeDriverCrash(restartAfter float64) {
	for _, a := range m.activeApps() {
		if !a.rt.Crashed() && !a.rt.Done() {
			a.rt.CrashDriver(restartAfter)
			return
		}
	}
}
