package spark

import (
	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/faults"
	"rupam/internal/monitor"
	"rupam/internal/simx"
	"rupam/internal/tracing"
)

// Substrate is the cluster-side state of a run: one executor (node-level
// worker) per node, one cache registry, one heartbeat monitor and, when
// the run injects faults, one fault injector. A single-application
// runtime builds its own in Start; a tenant manager or the federation
// harness builds one and hands it to every application's Runtime.
//
// The substrate is the one place node events reach runtimes: each
// heartbeat and each executor restart goes to every attached runtime that
// has not finished, in attach order, and then to the owner's Round.
type Substrate struct {
	Execs map[string]*executor.Executor
	Cache *executor.CacheTracker
	Mon   *monitor.Monitor
	// Inj is the owner's fault injector (nil without faults). The owner
	// installs it and routes its crashes; runtimes read it only to tell a
	// partitioned node from a dead one at driver recovery.
	Inj *faults.Injector

	rts   []*Runtime // attached runtimes in attach order
	round func()
}

// SubstrateOptions parameterizes NewSubstrate.
type SubstrateOptions struct {
	// Seed is the framework seed; node i's executor draws from
	// Seed + i*7919 over the cluster's node order.
	Seed uint64
	// Scheduler is the policy the run's drivers place tasks with; its
	// HeapFor sizes each node's executor heap and its RelocatesCache
	// decides whether cached partitions follow migrated tasks. It is only
	// asked, never bound.
	Scheduler Scheduler
	// HeartbeatInterval is the monitor period; 0 means 1 s.
	HeartbeatInterval float64
	Tracer            *tracing.Collector
	// Round runs once after every heartbeat and every executor restart
	// has reached the attached runtimes: the owner's scheduling round.
	Round func()
}

// FrameworkSeed is the framework seed of application app in a run seeded
// with seed; application 0's is also the substrate's.
func FrameworkSeed(seed uint64, app int) uint64 {
	return seed*31 + 7 + uint64(app)*1013
}

// NewSubstrate creates the executors, cache registry and heartbeat
// monitor every batch run executes on, without starting the monitor. The
// driver program runs on the cluster's first node, so result flows land
// there. Fault injection stays with the caller: it owns crash routing.
func NewSubstrate(eng *simx.Engine, clu *cluster.Cluster, o SubstrateOptions) *Substrate {
	s := &Substrate{
		Execs: make(map[string]*executor.Executor),
		Cache: executor.NewCacheTracker(),
		Mon:   monitor.New(eng, clu, o.HeartbeatInterval),
		round: o.Round,
	}
	for i, n := range clu.Nodes {
		ex := executor.New(eng, clu, n, s.Cache, s.Execs, executor.Config{
			HeapBytes:                 o.Scheduler.HeapFor(n),
			Seed:                      o.Seed + uint64(i)*7919,
			DriverNode:                clu.Nodes[0].Name(),
			Tracer:                    o.Tracer,
			RelocateCacheOnRemoteRead: o.Scheduler.RelocatesCache(),
		})
		ex.OnRestart = s.executorRestarted
	}
	s.Mon.OnHeartbeat = s.heartbeat
	return s
}

// attach adds rt to the fan-out and drops finished runtimes from it. It
// builds a fresh slice, so a fan in progress keeps iterating the set it
// started with, and a runtime attached mid-fan first hears the next event.
func (s *Substrate) attach(rt *Runtime) {
	live := make([]*Runtime, 0, len(s.rts)+1)
	for _, r := range s.rts {
		if !r.appDone {
			live = append(live, r)
		}
	}
	s.rts = append(live, rt)
}

func (s *Substrate) heartbeat(node string, nm *monitor.NodeMetrics) {
	for _, rt := range s.rts {
		rt.DeliverHeartbeat(node, nm)
	}
	s.round()
}

func (s *Substrate) executorRestarted() {
	for _, rt := range s.rts {
		if !rt.appDone {
			rt.sched.ExecutorSetChanged()
		}
	}
	s.round()
}
