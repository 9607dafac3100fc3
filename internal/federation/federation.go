package federation

import (
	"fmt"
	"sort"

	"rupam/internal/cluster"
	"rupam/internal/digest"
	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/tenant"
	"rupam/internal/wal"
	"rupam/internal/workloads"
)

// Config parameterizes one federated run: N drivers sharing one Hydra
// cluster, each owning a slice of K identical applications (app j belongs
// to driver j mod N), all placements arbitrated through the agent
// protocol.
type Config struct {
	// Drivers is the scheduler shard count (default 1).
	Drivers int
	// Apps is the application count, assigned round-robin to drivers
	// (default 4).
	Apps int
	// Workload is a package workloads name (default "PR" with reduced
	// parameters, matching the chaos soak's default).
	Workload string
	// Params override the workload's defaults when non-zero.
	Params workloads.Params
	// Seed drives the whole run: plans, executors, transport faults.
	Seed uint64
	// Faults, when non-empty, is installed once: message kinds onto the
	// control plane, node kinds onto a shared injector; DriverCrash
	// events rotate round-robin over drivers that still own live apps.
	Faults *faults.Schedule
	// Spark carries per-application framework overrides (its Faults is
	// not read, and the harness overwrites its WAL).
	Spark spark.Config
}

// maxSimTime bounds each application in virtual seconds; the run's
// watchdog horizon is twice it.
const maxSimTime float64 = 3600

func (c Config) withDefaults() Config {
	if c.Drivers <= 0 {
		c.Drivers = 1
	}
	if c.Apps <= 0 {
		c.Apps = 4
	}
	if c.Workload == "" {
		c.Workload = "PR"
		if c.Params == (workloads.Params{}) {
			c.Params = workloads.Params{InputGB: 0.5, Partitions: 16, Iterations: 2}
		}
	}
	return c
}

// AgentStats is one agent's protocol outcome for reports.
type AgentStats struct {
	Node        string `json:"node"`
	Capacity    int    `json:"capacity"`
	MaxReserved int    `json:"max_reserved"`
	Accepts     int    `json:"accepts"`
	Commits     int    `json:"commits"`
	Rejects     int    `json:"rejects"`
	Expiries    int    `json:"expiries"`
	// Agent fault-episode counters: crashes suffered, restarts, resync
	// handshakes closed, claims rebuilt from driver answers, and
	// PROPOSE/COMMITs refused for carrying a dead incarnation.
	Crashes      int `json:"crashes,omitempty"`
	Restarts     int `json:"restarts,omitempty"`
	Resyncs      int `json:"resyncs,omitempty"`
	Rebuilt      int `json:"rebuilt,omitempty"`
	StaleRejects int `json:"stale_rejects,omitempty"`
}

// DriverStats is one driver's protocol outcome for reports.
type DriverStats struct {
	ID          int     `json:"id"`
	Apps        int     `json:"apps"`
	Commits     int     `json:"commits"`
	BusySeconds float64 `json:"busy_seconds"`
	Crashes     int     `json:"crashes"`
	Recoveries  int     `json:"recoveries"`
}

// Result is one federated run's outcome.
type Result struct {
	Drivers  int     `json:"drivers"`
	Apps     int     `json:"apps"`
	Seed     uint64  `json:"seed"`
	Makespan float64 `json:"makespan_s"`
	// Commits is the total committed placements across drivers.
	Commits int `json:"commits"`
	// PlacementRate is commits per second of the busiest driver's serial
	// dispatch time — the protocol-throughput figure the scaling sweep
	// tracks (commits / max BusySeconds).
	PlacementRate float64 `json:"placement_rate"`
	// MaxBusySeconds is that busiest driver's dispatch time.
	MaxBusySeconds float64 `json:"max_busy_seconds"`

	Completed int `json:"completed"`
	Aborted   int `json:"aborted"`
	Launches  int `json:"launches"`
	Crashes   int `json:"driver_crashes"`

	// Agent fault-domain totals across all agents.
	AgentCrashes  int `json:"agent_crashes"`
	AgentRestarts int `json:"agent_restarts"`
	Resyncs       int `json:"agent_resyncs"`
	RebuiltClaims int `json:"rebuilt_claims"`

	MsgSent      int `json:"msg_sent"`
	MsgDelivered int `json:"msg_delivered"`
	MsgDropped   int `json:"msg_dropped"`
	MsgDuped     int `json:"msg_duped"`
	MsgDelayed   int `json:"msg_delayed"`
	MsgReordered int `json:"msg_reordered"`

	AgentStats  []AgentStats  `json:"agents,omitempty"`
	DriverStats []DriverStats `json:"driver_stats,omitempty"`

	Fingerprint string   `json:"fingerprint"`
	Violations  []string `json:"violations,omitempty"`

	// AppResults holds each application's spark result in app order;
	// AppRuntimes the matching runtimes (for invariant batteries).
	AppResults  []*spark.Result  `json:"-"`
	AppRuntimes []*spark.Runtime `json:"-"`
}

// Run executes one federated run to quiescence and returns its result.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{Drivers: cfg.Drivers, Apps: cfg.Apps, Seed: cfg.Seed}
	violation := func(v string) { res.Violations = append(res.Violations, v) }

	eng := simx.NewEngine()
	clu := cluster.New(eng)
	cluster.NewHydra(clu)

	plane := NewPlane(eng, cfg.Seed)
	if !cfg.Faults.Empty() {
		plane.Install(cfg.Faults)
	}

	agents := make([]*Agent, 0, len(clu.Nodes))
	nodeCap := make(map[string]int, len(clu.Nodes))
	for _, n := range clu.Nodes {
		agents = append(agents, NewAgent(eng, plane, n.Name(), n.Spec.Cores, violation))
		nodeCap[n.Name()] = n.Spec.Cores
	}

	drivers := make([]*Driver, cfg.Drivers)
	for i := range drivers {
		drivers[i] = NewDriver(eng, plane, i, nodeCap, violation)
	}
	addrs := make([]string, len(drivers))
	for i, d := range drivers {
		addrs[i] = d.Addr
	}
	agentByName := make(map[string]*Agent, len(agents))
	for _, a := range agents {
		a.SetDrivers(addrs)
		agentByName[a.Name] = a
	}

	// Shared substrate: one executor set, one monitor. After the
	// substrate fans a node event out to the applications, each live one
	// runs a local round — there is no global scheduler; the agents
	// arbitrate.
	round := func() {
		for _, rt := range res.AppRuntimes {
			if !rt.Done() && !rt.Crashed() {
				rt.Scheduler().Schedule()
			}
		}
	}
	sub := spark.NewSubstrate(eng, clu, spark.SubstrateOptions{
		Seed:              spark.FrameworkSeed(cfg.Seed, 0),
		Scheduler:         spark.NewDefaultScheduler(),
		HeartbeatInterval: cfg.Spark.HeartbeatInterval,
		Tracer:            cfg.Spark.Tracer,
		Round:             round,
	})

	// A restarted agent cross-checks bound RESYNC_CLAIMs against the
	// executor actually co-located with it: a claim said to back a live
	// attempt is rebuilt only if the task really is still running there.
	for _, a := range agents {
		ex := sub.Execs[a.Name]
		if ex == nil {
			continue
		}
		a.TaskRunning = func(taskID int) bool {
			if ex.FailStopped() {
				return false
			}
			for _, r := range ex.RunningView() {
				if r.Task().ID == taskID {
					return true
				}
			}
			return false
		}
	}

	var inj *faults.Injector
	if !cfg.Faults.Empty() {
		inj = faults.NewInjector(eng, clu, sub.Execs)
		sub.Inj = inj
		sub.Mon.Drop = inj.Suppressed
		inj.Collector = cfg.Spark.Tracer
		// Agent faults: AgentCrash/AgentRestart events plus the collateral
		// kills from NodeCrash and spot reclamation all land here. A crash
		// with no scheduled comeback (downtime 0) is broadcast as
		// membership news so drivers resolve its claims locally instead of
		// chasing acks that may never come.
		inj.OnAgentCrash = func(node string, downtime float64) {
			a := agentByName[node]
			if a == nil {
				return
			}
			a.Crash()
			if downtime == 0 {
				for _, d := range drivers {
					d.AgentDead(node)
				}
			}
		}
		inj.OnAgentRestart = func(node string) {
			a := agentByName[node]
			if a == nil {
				return
			}
			if ex, ok := sub.Execs[node]; ok && ex.FailStopped() {
				return // the node is still down; its recovery restarts the agent
			}
			a.Restart()
		}
		// DriverCrash events rotate over drivers that still own live
		// applications, so every shard's crash/recovery path runs.
		next := 0
		inj.OnDriverCrash = func(restartAfter float64) {
			for range drivers {
				d := drivers[next%len(drivers)]
				next++
				for _, a := range d.apps {
					if !a.done && !a.rt.Crashed() {
						d.Crash(restartAfter)
						return
					}
				}
			}
		}
		inj.Install(cfg.Faults)
	}

	// Applications: identical plans in disjoint ID namespaces, app j
	// owned by driver j mod N.
	remaining := cfg.Apps
	finish := func() {
		remaining--
		if remaining == 0 {
			res.Makespan = eng.Now()
			sub.Mon.Stop()
		}
	}
	for j := 0; j < cfg.Apps; j++ {
		d := drivers[j%cfg.Drivers]
		app := tenant.BuildApp(clu, cfg.Seed, cfg.Workload, cfg.Params, (j+1)*tenant.IDSpan)
		app.Name = fmt.Sprintf("app%d-%s", j, cfg.Workload)

		scfg := cfg.Spark
		scfg.Seed = spark.FrameworkSeed(cfg.Seed, j)
		scfg.AppLabel = app.Name
		scfg.MaxSimTime = maxSimTime
		// The application's WAL carries both scheduler state and claim
		// protocol records; crash recovery folds both from one stream.
		wlog := wal.New(nil, wal.Options{Clock: eng.Now})
		scfg.WAL = wlog

		fa, hooks := d.Adopt(wlog, app, finish)
		rt := spark.NewRuntimeOn(eng, clu, spark.NewDefaultScheduler(), scfg, sub, hooks)
		fa.rt = rt
		res.AppRuntimes = append(res.AppRuntimes, rt)
		rt.Start(app)
	}
	sub.Mon.Start()
	round()

	// Drain: applications finish first, then outstanding abort/release
	// cycles settle (they always do — fault windows are finite, restarted
	// agents ack unknown claims, and claims against permanently dead
	// agents resolve locally). The horizon is a watchdog, not an expected
	// path.
	eng.RunUntil(maxSimTime * 2)
	if eng.Pending() > 0 {
		violation(fmt.Sprintf("simulation did not quiesce: %d events pending at horizon", eng.Pending()))
	}
	if remaining > 0 {
		violation(fmt.Sprintf("%d applications never finished", remaining))
		res.Makespan = eng.Now()
	}

	// End-state battery: every slot free, every claim resolved, every
	// driver drained.
	h := digest.New()
	sort.Slice(agents, func(i, j int) bool { return agents[i].Name < agents[j].Name })
	for _, a := range agents {
		a.CheckEndState()
		res.AgentStats = append(res.AgentStats, AgentStats{
			Node: a.Name, Capacity: a.Capacity, MaxReserved: a.MaxReserved,
			Accepts: a.Accepts, Commits: a.Commits, Rejects: a.Rejects, Expiries: a.Expiries,
			Crashes: a.Crashes, Restarts: a.Restarts, Resyncs: a.Resyncs,
			Rebuilt: a.Rebuilt, StaleRejects: a.StaleRejects,
		})
		res.AgentCrashes += a.Crashes
		res.AgentRestarts += a.Restarts
		res.Resyncs += a.Resyncs
		res.RebuiltClaims += a.Rebuilt
		h.U64(a.Digest())
	}
	for _, d := range drivers {
		if n := d.LiveClaims(); n != 0 {
			violation(fmt.Sprintf("%s: %d claims still live at end of run", d.Addr, n))
		}
		res.Commits += d.Commits
		res.Crashes += d.Crashes
		if d.BusySeconds > res.MaxBusySeconds {
			res.MaxBusySeconds = d.BusySeconds
		}
		res.DriverStats = append(res.DriverStats, DriverStats{
			ID: d.ID, Apps: len(d.apps), Commits: d.Commits,
			BusySeconds: d.BusySeconds, Crashes: d.Crashes, Recoveries: d.Recoveries,
		})
		h.Int(d.Commits)
		h.F64(d.BusySeconds)
	}
	if res.MaxBusySeconds > 0 {
		res.PlacementRate = float64(res.Commits) / res.MaxBusySeconds
	}

	for _, rt := range res.AppRuntimes {
		r := rt.BuildResult()
		res.AppResults = append(res.AppResults, r)
		if r.Aborted != nil {
			res.Aborted++
		} else {
			res.Completed++
		}
		res.Launches += r.Launches
		h.Int(r.Launches)
		h.F64(r.Duration)
	}

	res.MsgSent, res.MsgDelivered, res.MsgDropped = plane.Sent, plane.Delivered, plane.Dropped
	res.MsgDuped, res.MsgDelayed, res.MsgReordered = plane.Duped, plane.Delayed, plane.Reordered
	h.Int(plane.Sent)
	h.Int(plane.Dropped)
	h.F64(res.Makespan)
	res.Fingerprint = h.Hex()
	return res
}
