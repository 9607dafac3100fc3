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

// Config parameterizes one multi-tenant run.
type Config struct {
	// Scheduler is "spark" or "rupam"; every application in the run uses
	// the same placement policy (the experiment compares whole runs).
	Scheduler string
	// Seed drives every random draw in the run: arrival times, workload
	// mix, framework randomness.
	Seed uint64
	// Arrivals parameterizes the open-loop generator; zero fields take
	// defaults (see ArrivalConfig).
	Arrivals ArrivalConfig
	// Spark carries per-application framework overrides.
	Spark spark.Config
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
}

// Admission control and the livelock watchdog.
const (
	// maxConcurrentApps bounds simultaneously running applications.
	maxConcurrentApps = 4
	// maxPendingApps bounds the admission queue; an arrival past it is
	// rejected, never silently dropped.
	maxPendingApps = 8
	// maxSimTime is four simulated hours: a run whose virtual clock
	// exceeds it panics.
	maxSimTime float64 = 14400
)

func (c Config) withDefaults() Config {
	if c.Scheduler == "" {
		c.Scheduler = "spark"
	}
	c.Arrivals = c.Arrivals.withDefaults()
	return c
}

// fairPools is the three-tenant FAIR layout every run uses: an
// interactive analytics pool with a capacity guarantee, an ML training
// pool, and a best-effort batch pool. It is never modified.
var fairPools = []PoolConfig{
	{Name: "analytics", Weight: 2, MinShare: 32},
	{Name: "ml", Weight: 1, MinShare: 16},
	{Name: "batch", Weight: 1, MinShare: 0},
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

	sharedDB *core.CharDB // every RUPAM application's characteristics; nil under spark

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

	// fairRound scratch (fair.go), reset every round.
	roundApps  []*appState
	pools      []*poolShare
	poolByName map[string]*poolShare

	leasedNow      map[string]int // node → currently leased cores
	leaseHighWater map[string]int // node → max cores ever leased at once
	peakLeased     int            // max total leased cores at once

	// elastic substrate (elastic.go)
	market        *cluster.Market
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
	return &Manager{cfg: cfg}
}

// Run executes the whole multi-tenant scenario on a fresh engine and
// returns its report. It panics if the run exceeds maxSimTime (livelock
// watchdog), like the single-application runtime.
func (m *Manager) Run() *Report {
	m.start()
	m.eng.RunUntil(maxSimTime)
	if !m.finished {
		panic(fmt.Sprintf("tenant: run exceeded MaxSimTime=%v with %d running and %d queued apps — livelock?",
			maxSimTime, len(m.running), len(m.pending)))
	}
	m.checkEndState()
	return m.buildReport()
}

// start builds the cluster and shared substrate and schedules every
// arrival; the engine has not yet run.
func (m *Manager) start() {
	m.eng = simx.NewEngine()
	m.clu = cluster.New(m.eng)
	cluster.NewHydra(m.clu)

	m.leasedNow = make(map[string]int)
	m.leaseHighWater = make(map[string]int)
	m.poolByName = make(map[string]*poolShare)
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
	if m.cfg.Scheduler == "rupam" {
		m.sharedDB = core.NewCharDB()
	}

	m.arrivals = drawArrivals(m.cfg.Seed, m.cfg.Arrivals)
	for i := range m.arrivals {
		i := i
		m.eng.Schedule(m.arrivals[i].at, func() { m.onArrival(i) })
	}

	m.sub.Mon.Start()
	m.armDynalloc()
}

// buildSubstrate creates the shared executors, cache registry, heartbeat
// monitor and (optional) fault injector — the per-cluster state every
// application's runtime attaches to.
func (m *Manager) buildSubstrate() {
	m.sub = spark.NewSubstrate(m.eng, m.clu, spark.SubstrateOptions{
		Seed:              m.cfg.Seed*31 + 7,
		HeapFor:           m.heapPolicy(),
		HeartbeatInterval: m.cfg.Spark.HeartbeatInterval,
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
		inj := faults.NewInjector(m.eng, m.clu, m.sub.Execs)
		m.sub.Inj = inj
		m.sub.Mon.Drop = inj.Suppressed
		inj.Collector = m.cfg.Tracer
		inj.OnDriverCrash = m.routeDriverCrash
		inj.OnSpotNotice = m.onSpotNotice
		inj.OnSpotKill = m.onSpotKill
		inj.Install(m.cfg.Faults)
	}
}

// heapPolicy sizes the shared node-level executors the way the run's
// scheduler would size its own: RUPAM's memory-aware per-node heap, or
// stock Spark's one static size everywhere.
func (m *Manager) heapPolicy() func(*cluster.Node) int64 {
	if m.cfg.Scheduler == "rupam" {
		sizer := core.New(core.Config{})
		return sizer.HeapFor
	}
	return func(*cluster.Node) int64 { return spark.StaticHeapBytes }
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
	case len(m.running) < maxConcurrentApps && len(m.pending) == 0:
		m.admitted++
		m.startApp(a)
	case len(m.pending) < maxPendingApps:
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
		sched = core.NewWithDB(core.Config{}, m.sharedDB)
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
	cfg.MaxSimTime = maxSimTime
	if m.cfg.Faults.HasKind(faults.DriverCrash) {
		// A routed driver crash needs a log to replay; keep one in memory
		// per application, exactly like the single-app auto-WAL.
		cfg.WAL = wal.New(nil, wal.Options{Clock: m.eng.Now})
	}

	rt := spark.NewRuntimeOn(m.eng, m.clu, sched, cfg, m.sub, spark.Hooks{
		CanLaunch:  func(node string) bool { return a.leases[node] > 0 },
		UnderCap:   func() bool { return a.rt.LiveAttempts() < a.slotTarget },
		Reschedule: m.ScheduleAll,
		Done:       func() { m.appFinished(a) },
	})
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
	for len(m.running) < maxConcurrentApps && len(m.pending) > 0 {
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
