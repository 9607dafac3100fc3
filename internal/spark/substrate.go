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
type Substrate struct {
	Execs map[string]*executor.Executor
	Cache *executor.CacheTracker
	Mon   *monitor.Monitor
	// Inj is the owner's fault injector (nil without faults). The owner
	// installs it and routes its crashes; runtimes read it only to tell a
	// partitioned node from a dead one at driver recovery. Set it before
	// building the runtimes.
	Inj *faults.Injector
}

// SubstrateOptions parameterizes NewSubstrate.
type SubstrateOptions struct {
	// Seed is the framework seed; node i's executor draws from
	// Seed + i*7919 over the cluster's node order.
	Seed uint64
	// HeapFor sizes each node's executor heap; nil uses StaticHeapBytes.
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

// NewSubstrate creates the executors, cache registry and heartbeat
// monitor every batch run executes on, without starting the monitor. The
// driver program runs on the cluster's first node, so result flows land
// there. Fault injection stays with the caller: it owns crash routing.
func NewSubstrate(eng *simx.Engine, clu *cluster.Cluster, o SubstrateOptions) *Substrate {
	heapFor := o.HeapFor
	if heapFor == nil {
		heapFor = func(*cluster.Node) int64 { return StaticHeapBytes }
	}
	cache := executor.NewCacheTracker()
	execs := make(map[string]*executor.Executor)
	for i, n := range clu.Nodes {
		ex := executor.New(eng, clu, n, cache, execs, executor.Config{
			HeapBytes:                 heapFor(n),
			Seed:                      o.Seed + uint64(i)*7919,
			DriverNode:                clu.Nodes[0].Name(),
			Tracer:                    o.Tracer,
			RelocateCacheOnRemoteRead: o.RelocateCache,
		})
		ex.OnRestart = o.OnRestart
	}
	hb := o.HeartbeatInterval
	if hb <= 0 {
		hb = 1
	}
	mon := monitor.New(eng, clu, hb)
	mon.OnHeartbeat = o.OnHeartbeat
	return &Substrate{Execs: execs, Cache: cache, Mon: mon}
}
