// Package monitor implements RUPAM's Resource Monitor (RM): a per-node
// Collector samples the machine's multi-dimensional resource state and
// piggy-backs it on the worker's periodic heartbeat to the master-side
// Monitor, which keeps the freshest view per node (the paper's
// executorDataMap reuse). The node-side metrics are the left-hand column
// of Table I: CPU frequency, idle GPUs, SSD presence, network bandwidth,
// free memory, and CPU/disk/network load.
package monitor

import (
	"rupam/internal/cluster"
	"rupam/internal/simx"
)

// NodeMetrics is one heartbeat's resource report (Table I, left side).
type NodeMetrics struct {
	Node string
	Time float64

	// CPUFreq is the *effective* per-core speed in GHz — the spec
	// frequency unless a DVFS governor or an injected CPUDegrade window
	// has rescaled the node, in which case the heartbeat reports the
	// throttled value (Table I treats cpufreq as dynamic for exactly this
	// reason). Consumers compare it against the spec to spot fail-slow
	// nodes.
	CPUFreq      float64 // GHz
	Cores        int
	SSD          bool
	NetBandwidth float64 // bytes/sec
	TotalGPUs    int

	// Dynamic properties, refreshed every heartbeat.
	IdleGPUs     int
	FreeMemory   int64   // executor heap free bytes
	CPUUtil      float64 // [0,1]
	DiskUtil     float64 // [0,1]
	NetUtil      float64 // [0,1]
	RunningTasks int
}

// HeapProbe lets the monitor read executor-level free memory without
// importing the executor package (the executor layer registers itself).
type HeapProbe interface {
	HeapFree() int64
	RunningTasks() int
	Down() bool
}

// Monitor is the master-side collector state.
type Monitor struct {
	eng      *simx.Engine
	clu      *cluster.Cluster
	interval float64
	probes   map[string]HeapProbe
	latest   map[string]*NodeMetrics

	// OnHeartbeat, if set, fires after each node's report lands — the
	// hook the task schedulers use to trigger a scheduling round, exactly
	// as Spark schedules on heartbeat-driven offers.
	OnHeartbeat func(node string, m *NodeMetrics)

	// Drop, if set, suppresses a node's heartbeat when it returns true —
	// a fail-stopped or partitioned node cannot report. The tick keeps
	// re-arming so heartbeats resume the moment the node recovers.
	Drop func(node string) bool

	timers  []simx.Timer // pending heartbeat per node, indexed like clu.Nodes
	stopped bool
	// Heartbeats counts reports received (monitoring overhead accounting).
	Heartbeats int
}

// New creates a monitor over the cluster with the given heartbeat
// interval in seconds (the paper piggybacks on Spark's default 1 s
// executor heartbeat).
func New(eng *simx.Engine, clu *cluster.Cluster, interval float64) *Monitor {
	if interval <= 0 {
		interval = 1
	}
	return &Monitor{
		eng:      eng,
		clu:      clu,
		interval: interval,
		probes:   make(map[string]HeapProbe),
		latest:   make(map[string]*NodeMetrics),
	}
}

// RegisterProbe attaches an executor-level probe for a node.
func (m *Monitor) RegisterProbe(node string, p HeapProbe) { m.probes[node] = p }

// Start begins heartbeat collection, staggering nodes across the interval
// the way independently-started workers would be.
func (m *Monitor) Start() {
	m.timers = make([]simx.Timer, len(m.clu.Nodes))
	for i, n := range m.clu.Nodes {
		slot, node := i, n
		offset := m.interval * float64(i) / float64(len(m.clu.Nodes))
		m.timers[i] = m.eng.Schedule(offset, func() {
			m.tick(slot, node)
		})
	}
}

// Stop halts future heartbeats. The slots stay allocated: a tick already
// firing when Stop runs still re-arms into its own, as a no-op.
func (m *Monitor) Stop() {
	m.stopped = true
	for _, t := range m.timers {
		t.Cancel()
	}
}

// Resume restarts heartbeat collection after a Stop, re-staggering nodes
// the way Start does. The Heartbeats counter and per-node latest views are
// preserved — a recovered driver resumes monitoring, it does not forget
// what it had observed. No-op while running.
func (m *Monitor) Resume() {
	if !m.stopped {
		return
	}
	m.stopped = false
	m.Start()
}

func (m *Monitor) tick(slot int, node *cluster.Node) {
	if m.stopped {
		return
	}
	if m.Drop == nil || !m.Drop(node.Name()) {
		nm := m.Collect(node)
		m.latest[node.Name()] = nm
		m.Heartbeats++
		if m.OnHeartbeat != nil {
			m.OnHeartbeat(node.Name(), nm)
		}
	}
	m.timers[slot] = m.eng.Schedule(m.interval, func() {
		m.tick(slot, node)
	})
}

// Collect samples a node's current state (the Collector's job).
func (m *Monitor) Collect(node *cluster.Node) *NodeMetrics {
	nm := &NodeMetrics{
		Node:         node.Name(),
		Time:         m.eng.Now(),
		CPUFreq:      effectiveFreq(node),
		Cores:        node.Spec.Cores,
		SSD:          node.Spec.SSD,
		NetBandwidth: node.Spec.NetBandwidth,
		TotalGPUs:    node.Spec.GPUs,
		IdleGPUs:     node.GPU.Idle(),
		CPUUtil:      node.CPUUtil(),
		DiskUtil:     node.DiskUtil(),
		NetUtil:      node.NetUtil(),
		FreeMemory:   node.Mem.Free(),
	}
	if p, ok := m.probes[node.Name()]; ok {
		nm.FreeMemory = p.HeapFree()
		nm.RunningTasks = p.RunningTasks()
	}
	return nm
}

// effectiveFreq reads the node's current per-core speed off its CPU
// resource (the per-claim cap tracks the effective core frequency through
// DVFS and fault-injected throttle windows), falling back to the spec
// when the resource carries no cap.
func effectiveFreq(node *cluster.Node) float64 {
	if f := node.CPU.PerClaimCap(); f > 0 {
		return f
	}
	return node.Spec.FreqGHz
}

// Latest returns the most recent report for a node (nil before the first
// heartbeat).
func (m *Monitor) Latest(node string) *NodeMetrics { return m.latest[node] }

// Interval returns the heartbeat interval.
func (m *Monitor) Interval() float64 { return m.interval }
