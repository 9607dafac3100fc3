package faults

import (
	"fmt"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/simx"
	"rupam/internal/tracing"
)

// Injector applies a Schedule to a live cluster. It owns the mechanics of
// each fault — fail-stopping executors, rescaling NIC/disk/CPU capacities,
// squeezing effective heaps, flipping task-flake probabilities, opening
// heartbeat-suppression windows — and exposes Suppressed for the monitor's
// Drop hook; the driver-side consequences (executor-lost detection,
// fetch-failure resubmission, blacklisting, speculation) live in the
// scheduler runtime, which only observes the fault through missing
// heartbeats, slow monitor readings, and dead attempts, exactly like a
// real driver.
//
// Degradation windows of the same kind may overlap on one node: each
// (node, kind) pair tracks the multiset of active factors and applies the
// harshest (minimum) one, restoring the nominal value only when the last
// window closes. TaskFlake is the exception — overlapping flake windows
// apply the *maximum* probability, since independent failure sources make
// an attempt more likely to die, not less.
type Injector struct {
	eng   *simx.Engine
	clu   *cluster.Cluster
	execs map[string]*executor.Executor

	// hbLost counts open HeartbeatLoss windows per node (windows may
	// overlap; the node reports again only when all have closed).
	hbLost map[string]int

	// windows tracks the active degradation factors per (node, kind) so
	// overlapping windows compose instead of restoring nominal capacity
	// too early.
	windows map[windowKey][]float64

	// Collector, if set, records each fault window as a structured span on
	// the node's fault track. Nil (the default) records nothing.
	Collector *tracing.Collector

	// OnDriverCrash, if set, is invoked for DriverCrash events with the
	// restart delay; the scheduler runtime wires its crash/recovery path
	// here. Unset, driver-crash events are ignored (a driverless harness).
	OnDriverCrash func(restartAfter float64)

	// OnSpotNotice, if set, receives each spot-preemption warning with the
	// grace window; notice-aware drivers fence and drain the node here. The
	// kill itself happens regardless — the provider does not wait for
	// anyone to acknowledge the notice.
	OnSpotNotice func(node string, grace float64)
	// OnSpotKill, if set, fires right after the reclaimed node fail-stops,
	// so the driver can treat the loss as announced rather than discovering
	// it by heartbeat timeout.
	OnSpotKill func(node string)

	// OnLoadSpike, if set, receives the new effective offered-load
	// multiplier whenever a LoadSpike window opens or closes (1 when none
	// is active). The streaming runtime scales its source rates here.
	// Unset, load-spike events are ignored (a batch-only harness).
	OnLoadSpike func(multiplier float64)

	// OnAgentCrash, if set, fires when a federation agent dies — at an
	// AgentCrash event, or as collateral of its node crashing (NodeCrash)
	// or being reclaimed (the SpotPreempt kill): a node's death takes its
	// protocol daemon with it. downtime > 0 means the injector brings the
	// agent back that long after the crash; 0 means it stays down until an
	// explicit AgentRestart, a NodeCrash recovery, or forever. Unset,
	// agent faults are ignored (a non-federated harness).
	OnAgentCrash func(node string, downtime float64)
	// OnAgentRestart, if set, fires when a crashed agent comes back — after
	// an AgentCrash downtime, at an explicit AgentRestart event, or when a
	// crashed node recovers. The federation harness runs the agent's RESYNC
	// handshake here.
	OnAgentRestart func(node string)

	// LoadSpikes counts the load-spike windows opened, for the streaming
	// report.
	LoadSpikes int
}

type windowKey struct {
	node string
	kind Kind
}

// NewInjector creates an injector over the cluster's executors. The execs
// map is the shared by-node registry the executor layer maintains.
func NewInjector(eng *simx.Engine, clu *cluster.Cluster, execs map[string]*executor.Executor) *Injector {
	return &Injector{
		eng:     eng,
		clu:     clu,
		execs:   execs,
		hbLost:  make(map[string]int),
		windows: make(map[windowKey][]float64),
	}
}

// Suppressed reports whether the node currently cannot heartbeat — it is
// fail-stopped or inside a heartbeat-loss window. Wire this into
// monitor.Monitor.Drop.
func (inj *Injector) Suppressed(node string) bool {
	if inj.hbLost[node] > 0 {
		return true
	}
	if ex, ok := inj.execs[node]; ok && ex.FailStopped() {
		return true
	}
	return false
}

// Install schedules every event in s onto the engine. It panics on an
// invalid schedule or an event naming an unknown node — fault plans are
// experiment constants, so misconfiguration is a programming error.
func (inj *Injector) Install(s *Schedule) {
	if s.Empty() {
		return
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	for _, ev := range s.sorted() {
		if ev.Kind.IsMessageKind() {
			// Message faults target the federation control plane, which
			// installs them itself (federation.Plane.Install); the node
			// injector has no transport to degrade.
			continue
		}
		if ev.Kind != DriverCrash && ev.Kind != LoadSpike && inj.clu.Node(ev.Node) == nil {
			panic(fmt.Sprintf("faults: schedule names unknown node %q", ev.Node))
		}
		e := ev
		inj.eng.At(e.At, func() { inj.apply(e) })
	}
}

func (inj *Injector) apply(ev Event) {
	switch ev.Kind {
	case NodeCrash:
		inj.crash(ev)
	case NICDegrade:
		inj.degradeNIC(ev)
	case DiskDegrade:
		inj.degradeDisk(ev)
	case HeartbeatLoss:
		inj.loseHeartbeats(ev)
	case CPUDegrade:
		inj.degradeCPU(ev)
	case MemPressure:
		inj.pressureMem(ev)
	case TaskFlake:
		inj.flakeTasks(ev)
	case DriverCrash:
		inj.crashDriver(ev)
	case SpotPreempt:
		inj.preempt(ev)
	case LoadSpike:
		inj.spikeLoad(ev)
	case AgentCrash:
		inj.crashAgent(ev)
	case AgentRestart:
		inj.restartAgent(ev)
	}
}

// crashAgent kills the node's federation agent without touching its
// executors: the co-located protocol daemon dies, the work survives.
func (inj *Injector) crashAgent(ev Event) {
	if inj.OnAgentCrash == nil {
		return
	}
	detail := "until explicit restart"
	if ev.Duration > 0 {
		detail = fmt.Sprintf("restart %.1fs", ev.Duration)
	}
	inj.Collector.FaultSpan(ev.Node, "agent-crash", detail, ev.Duration)
	inj.OnAgentCrash(ev.Node, ev.Duration)
	if ev.Duration > 0 {
		node := ev.Node
		inj.eng.Schedule(ev.Duration, func() { inj.agentBack(node) })
	}
}

func (inj *Injector) restartAgent(ev Event) {
	inj.agentBack(ev.Node)
}

// agentBack reports an agent restart to the harness.
func (inj *Injector) agentBack(node string) {
	if inj.OnAgentRestart == nil {
		return
	}
	inj.OnAgentRestart(node)
}

// spikeLoad opens an offered-load amplification window. The window
// machinery is shared with the degradation kinds; LoadSpike composes by
// maximum (see effectiveFactor) and reports multiplier 1 when the last
// window closes.
func (inj *Injector) spikeLoad(ev Event) {
	if inj.OnLoadSpike == nil {
		return
	}
	inj.LoadSpikes++
	inj.Collector.FaultSpan("", "load-spike",
		fmt.Sprintf("×%.2f for %.0fs", ev.Factor, ev.Duration), ev.Duration)
	inj.openWindow(ev, func(f float64) {
		inj.OnLoadSpike(f)
	})
}

// preempt delivers a spot-reclamation notice and schedules the kill at the
// end of the grace window. A node already fail-stopped when the notice
// fires is skipped (the provider cannot reclaim an instance nobody holds);
// a node that dies some other way during the grace window is likewise not
// killed twice. The kill is a permanent fail-stop: only the elastic
// substrate re-acquiring the instance (executor.Reactivate) brings it back.
func (inj *Injector) preempt(ev Event) {
	ex, ok := inj.execs[ev.Node]
	if !ok || ex.FailStopped() {
		return
	}
	inj.Collector.FaultSpan(ev.Node, "spot-preempt",
		fmt.Sprintf("grace %.1fs", ev.Duration), ev.Duration)
	if inj.OnSpotNotice != nil {
		inj.OnSpotNotice(ev.Node, ev.Duration)
	}
	inj.eng.Schedule(ev.Duration, func() {
		if ex.FailStopped() {
			return
		}
		if inj.OnAgentCrash != nil {
			// Reclamation takes the whole instance: the co-located agent
			// dies for good with the node (downtime 0, no scheduled
			// restart — only re-acquisition would bring it back).
			inj.OnAgentCrash(ev.Node, 0)
		}
		ex.FailStop(0)
		if inj.OnSpotKill != nil {
			inj.OnSpotKill(ev.Node)
		}
	})
}

func (inj *Injector) crashDriver(ev Event) {
	if inj.OnDriverCrash == nil {
		return
	}
	inj.Collector.FaultSpan("", "driver-crash",
		fmt.Sprintf("restart %.1fs", ev.Duration), ev.Duration)
	inj.OnDriverCrash(ev.Duration)
}

func (inj *Injector) crash(ev Event) {
	ex, ok := inj.execs[ev.Node]
	if !ok || ex.FailStopped() {
		return
	}
	detail := "permanent"
	if ev.Duration > 0 {
		detail = fmt.Sprintf("recovery %.0fs", ev.Duration)
	}
	inj.Collector.FaultSpan(ev.Node, "crash", detail, ev.Duration)
	if inj.OnAgentCrash != nil {
		// The node's death takes the co-located federation agent with it;
		// the agent restarts (and resyncs) only when the node recovers.
		inj.OnAgentCrash(ev.Node, 0)
	}
	// FailStop before scheduling the recovery closure so the executor's own
	// restart (armed inside FailStop at the same instant) fires first and
	// the agent comes back to a live node.
	ex.FailStop(ev.Duration)
	if ev.Duration > 0 {
		inj.eng.Schedule(ev.Duration, func() {
			inj.agentBack(ev.Node)
		})
	}
}

// openWindow registers a degradation factor for (node, kind) and runs
// apply with the new effective (minimum) factor; when the window expires
// it recomputes and re-applies, so overlapping windows restore nominal
// capacity only after the last one closes.
func (inj *Injector) openWindow(ev Event, apply func(effective float64)) {
	key := windowKey{ev.Node, ev.Kind}
	inj.windows[key] = append(inj.windows[key], ev.Factor)
	apply(inj.effectiveFactor(key))
	inj.eng.Schedule(ev.Duration, func() {
		active := inj.windows[key]
		for i, f := range active {
			if f == ev.Factor {
				inj.windows[key] = append(active[:i], active[i+1:]...)
				break
			}
		}
		if len(inj.windows[key]) == 0 {
			delete(inj.windows, key)
		}
		apply(inj.effectiveFactor(key))
	})
}

// effectiveFactor is the harshest active factor for (node, kind), or 1
// (nominal) when no window is open. TaskFlake inverts the rule: more
// concurrent failure sources mean a higher death probability, so there
// the effective factor is the maximum (and 0 means no flaking); LoadSpike
// likewise takes the maximum, since its factors amplify (≥ 1) rather
// than degrade.
func (inj *Injector) effectiveFactor(key windowKey) float64 {
	active := inj.windows[key]
	if key.kind == LoadSpike {
		eff := 1.0
		for _, f := range active {
			if f > eff {
				eff = f
			}
		}
		return eff
	}
	if key.kind == TaskFlake {
		max := 0.0
		for _, f := range active {
			if f > max {
				max = f
			}
		}
		return max
	}
	eff := 1.0
	for _, f := range active {
		if f < eff {
			eff = f
		}
	}
	return eff
}

func (inj *Injector) degradeNIC(ev Event) {
	node := inj.clu.Node(ev.Node)
	base := node.Spec.NetBandwidth
	inj.Collector.FaultSpan(ev.Node, "nic-degrade",
		fmt.Sprintf("×%.2f for %.0fs", ev.Factor, ev.Duration), ev.Duration)
	inj.openWindow(ev, func(f float64) {
		inj.clu.Net.SetCapacity(ev.Node, base*f, base*f)
	})
}

func (inj *Injector) degradeDisk(ev Event) {
	node := inj.clu.Node(ev.Node)
	readBase, writeBase := node.Spec.DiskReadBW, node.Spec.DiskWriteBW
	inj.Collector.FaultSpan(ev.Node, "disk-degrade",
		fmt.Sprintf("×%.2f for %.0fs", ev.Factor, ev.Duration), ev.Duration)
	inj.openWindow(ev, func(f float64) {
		node.DiskRead.SetCapacity(readBase * f)
		node.DiskWrite.SetCapacity(writeBase * f)
	})
}

func (inj *Injector) degradeCPU(ev Event) {
	node := inj.clu.Node(ev.Node)
	spec := node.Spec
	inj.Collector.FaultSpan(ev.Node, "cpu-degrade",
		fmt.Sprintf("×%.2f for %.0fs", ev.Factor, ev.Duration), ev.Duration)
	inj.openWindow(ev, func(f float64) {
		node.CPU.SetCapacity(spec.CPUCapacity() * f)
		node.CPU.SetPerClaimCap(spec.FreqGHz * f)
	})
}

func (inj *Injector) pressureMem(ev Event) {
	ex, ok := inj.execs[ev.Node]
	if !ok {
		return
	}
	inj.Collector.FaultSpan(ev.Node, "mem-pressure",
		fmt.Sprintf("×%.2f for %.0fs", ev.Factor, ev.Duration), ev.Duration)
	inj.openWindow(ev, func(f float64) {
		ex.SetMemPressure(f)
	})
}

func (inj *Injector) flakeTasks(ev Event) {
	ex, ok := inj.execs[ev.Node]
	if !ok {
		return
	}
	inj.Collector.FaultSpan(ev.Node, "task-flake",
		fmt.Sprintf("p=%.2f for %.0fs", ev.Factor, ev.Duration), ev.Duration)
	inj.openWindow(ev, func(p float64) {
		ex.SetFlakeProb(p)
	})
}

func (inj *Injector) loseHeartbeats(ev Event) {
	inj.Collector.FaultSpan(ev.Node, "heartbeat-loss",
		fmt.Sprintf("for %.0fs", ev.Duration), ev.Duration)
	inj.hbLost[ev.Node]++
	inj.eng.Schedule(ev.Duration, func() {
		inj.hbLost[ev.Node]--
	})
}
