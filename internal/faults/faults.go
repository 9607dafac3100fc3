// Package faults is a deterministic, seeded fault-injection subsystem
// driven by the simulation's virtual clock. A Schedule is a list of timed
// events — fail-stop node crashes (with optional recovery), transient NIC
// degradation windows, fail-slow disks, and heartbeat-loss windows — that
// an Injector applies to a running cluster. Everything is derived from the
// schedule and the engine's event order, so a fixed seed reproduces the
// exact same failure trace run after run; an empty schedule leaves the
// simulation byte-identical to one with no fault layer at all.
package faults

import (
	"fmt"
	"math"
	"sort"

	"rupam/internal/stats"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// NodeCrash fail-stops a node: every running attempt dies silently,
	// cached partitions and shuffle files are lost, and the node stops
	// heartbeating. Duration > 0 brings it back after that long;
	// Duration == 0 is a permanent loss.
	NodeCrash Kind = iota
	// NICDegrade rescales a node's NIC to Factor × nominal for Duration
	// seconds (a flaky link, incast pause, or duplex mismatch).
	NICDegrade
	// DiskDegrade rescales a node's disk read/write bandwidth to
	// Factor × nominal for Duration seconds (a fail-slow disk).
	DiskDegrade
	// HeartbeatLoss suppresses a node's heartbeats for Duration seconds
	// without stopping its work — a driver-side network partition. The
	// driver will declare the executor lost even though its tasks are
	// still running; the simulation must survive the rejoin.
	HeartbeatLoss
	// CPUDegrade rescales a node's compute rate (aggregate and per-core)
	// to Factor × nominal for Duration seconds — a thermal-throttle/DVFS
	// gray failure: the node is alive and heartbeating, just slow.
	CPUDegrade
	// MemPressure squeezes a node's effective heap to Factor × nominal for
	// Duration seconds, amplifying the GC cost of everything running there
	// (a co-tenant ballooning, or the OS stealing page cache). No
	// allocation fails; the node just collects garbage much harder.
	MemPressure
	// TaskFlake makes each task attempt started on the node fail with
	// probability Factor for Duration seconds — transient task-level
	// failures (a flaky local disk, a corrupted spill file, a JNI bug)
	// that exercise retry accounting without taking the node down.
	TaskFlake
	// DriverCrash kills the driver process itself: scheduler state, the
	// map-output registry, CharDB learnings and the blacklist all vanish
	// unless written ahead to a WAL. Executors keep running (and buffer
	// their results) while the driver is down; Duration > 0 is the restart
	// delay before recovery replays the log and reconciles with survivors.
	// Node is empty — the fault targets the driver, not a worker.
	DriverCrash
	// SpotPreempt reclaims a spot instance with notice: at At the provider
	// delivers a preemption warning, and Duration seconds later (the grace
	// window) the node fail-stops permanently — only the elastic substrate
	// re-acquiring the instance brings it back. A notice-aware driver uses
	// the window to fence the node and drain its shuffle outputs; a
	// notice-ignoring one experiences it as a plain crash at At+Duration.
	SpotPreempt
	// MsgDrop makes each federation control-plane message crossing an edge
	// scoped by Node (empty = every edge) vanish with probability Factor
	// for Duration seconds. The message faults are consumed by the
	// federation plane, not the node injector: they degrade the placement
	// protocol's transport, never the workers themselves.
	MsgDrop
	// MsgDup delivers each matching control-plane message twice with
	// probability Factor for Duration seconds — the duplicate arrives a
	// beat after the original, exercising idempotent handlers and
	// claim-ID dedup.
	MsgDup
	// MsgDelay holds each matching control-plane message back by an extra
	// Delay seconds with probability Factor for Duration seconds, firing
	// the drivers' retransmit timers against messages that are late, not
	// lost.
	MsgDelay
	// MsgReorder adds a random per-message skew (up to several base
	// latencies) with probability Factor for Duration seconds, so a later
	// message can overtake an earlier one on the same edge.
	MsgReorder
	// LoadSpike multiplies every streaming source's emission rate by
	// Factor (≥ 1 — the one kind whose factor amplifies instead of
	// degrades) for Duration seconds: a flash crowd. Node is empty — the
	// spike hits the workload's offered load, not a machine. Consumed by
	// the streaming runtime; the node injector exposes it via OnLoadSpike.
	LoadSpike
	// AgentCrash kills the federation agent co-located with a node: every
	// accepted/committed claim, expiry timer, and tombstone it held is
	// wiped and its reserved slots are implicitly freed. The node's
	// executors keep running — only the protocol daemon dies. Duration > 0
	// restarts the agent after that long (it then resynchronizes with the
	// drivers before accepting new claims); Duration == 0 leaves it down
	// until an explicit AgentRestart, or forever. Exposed through the
	// injector's OnAgentCrash hook; a NodeCrash also kills the co-located
	// agent, since a node's death takes its daemons with it.
	AgentCrash
	// AgentRestart brings back an agent taken down by a Duration-0
	// AgentCrash. The restarted agent bumps its incarnation and runs the
	// RESYNC handshake against the drivers before accepting claims.
	// Duration must be 0 — a restart is instantaneous.
	AgentRestart
)

// IsMessageKind reports whether the kind targets the federation control
// plane rather than a cluster node. The node Injector ignores these; the
// federation plane installs them.
func (k Kind) IsMessageKind() bool {
	switch k {
	case MsgDrop, MsgDup, MsgDelay, MsgReorder:
		return true
	}
	return false
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case NICDegrade:
		return "nic-degrade"
	case DiskDegrade:
		return "disk-degrade"
	case HeartbeatLoss:
		return "heartbeat-loss"
	case CPUDegrade:
		return "cpu-degrade"
	case MemPressure:
		return "mem-pressure"
	case TaskFlake:
		return "task-flake"
	case DriverCrash:
		return "driver-crash"
	case SpotPreempt:
		return "spot-preempt"
	case MsgDrop:
		return "msg-drop"
	case MsgDup:
		return "msg-dup"
	case MsgDelay:
		return "msg-delay"
	case MsgReorder:
		return "msg-reorder"
	case LoadSpike:
		return "load-spike"
	case AgentCrash:
		return "agent-crash"
	case AgentRestart:
		return "agent-restart"
	default:
		return fmt.Sprintf("faults.Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	Kind Kind
	Node string
	// At is the virtual time the fault strikes.
	At float64
	// Duration is how long the fault lasts; 0 means permanent for
	// NodeCrash and is invalid for the windowed kinds.
	Duration float64
	// Factor is the fault's severity knob, in (0, 1]: the capacity
	// multiplier for NICDegrade/DiskDegrade/CPUDegrade, the effective-heap
	// multiplier for MemPressure, the per-attempt failure probability for
	// TaskFlake, and the per-message hit probability for the Msg kinds.
	Factor float64
	// Delay is the extra per-message latency, in seconds, a MsgDelay
	// window adds to each message it hits. Unused by every other kind.
	Delay float64
}

// String describes the event for traces.
func (e Event) String() string {
	return fmt.Sprintf("%s %s at %.2fs (dur %.2fs, factor %.2f)", e.Kind, e.Node, e.At, e.Duration, e.Factor)
}

// Validate reports the first problem with the event, or nil.
func (e Event) Validate() error {
	switch {
	// Msg kinds may leave Node empty (= every protocol edge) or name a
	// node to scope the fault to that agent's edges.
	case e.Node == "" && e.Kind != DriverCrash && e.Kind != LoadSpike && !e.Kind.IsMessageKind():
		return fmt.Errorf("faults: %s event without a node", e.Kind)
	case e.Node != "" && e.Kind == DriverCrash:
		return fmt.Errorf("faults: driver-crash event names a node (%s)", e.Node)
	case e.Node != "" && e.Kind == LoadSpike:
		return fmt.Errorf("faults: load-spike event names a node (%s); spikes hit the offered load", e.Node)
	case !finite(e.At) || !finite(e.Duration) || !finite(e.Factor) || !finite(e.Delay):
		// NaN would pass every range check below.
		return fmt.Errorf("faults: %s %s: non-finite value (at %g, duration %g, factor %g, delay %g)",
			e.Kind, e.Node, e.At, e.Duration, e.Factor, e.Delay)
	case e.At < 0:
		return fmt.Errorf("faults: %s %s: negative time %g", e.Kind, e.Node, e.At)
	case e.Duration < 0:
		return fmt.Errorf("faults: %s %s: negative duration %g", e.Kind, e.Node, e.Duration)
	case e.Delay < 0:
		return fmt.Errorf("faults: %s %s: negative delay %g", e.Kind, e.Node, e.Delay)
	}
	switch e.Kind {
	case NICDegrade, DiskDegrade, CPUDegrade, MemPressure, TaskFlake:
		if e.Factor <= 0 || e.Factor > 1 {
			return fmt.Errorf("faults: %s %s: factor %g outside (0,1]", e.Kind, e.Node, e.Factor)
		}
		if e.Duration == 0 {
			return fmt.Errorf("faults: %s %s: windowed fault needs a duration", e.Kind, e.Node)
		}
	case HeartbeatLoss:
		if e.Duration == 0 {
			return fmt.Errorf("faults: %s %s: windowed fault needs a duration", e.Kind, e.Node)
		}
	case NodeCrash:
	case DriverCrash:
		if e.Duration <= 0 {
			return fmt.Errorf("faults: driver-crash needs a positive restart delay, got %g", e.Duration)
		}
	case SpotPreempt:
		if e.Duration <= 0 {
			return fmt.Errorf("faults: spot-preempt needs a positive grace window, got %g", e.Duration)
		}
	case MsgDrop, MsgDup, MsgDelay, MsgReorder:
		if e.Factor <= 0 || e.Factor > 1 {
			return fmt.Errorf("faults: %s %s: factor %g outside (0,1]", e.Kind, e.Node, e.Factor)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("faults: %s %s: windowed fault needs a duration", e.Kind, e.Node)
		}
		if e.Kind == MsgDelay && e.Delay <= 0 {
			return fmt.Errorf("faults: msg-delay %s needs a positive delay, got %g", e.Node, e.Delay)
		}
	case LoadSpike:
		if e.Factor < 1 {
			return fmt.Errorf("faults: load-spike factor %g below 1; spikes amplify the offered load", e.Factor)
		}
		if e.Duration <= 0 {
			return fmt.Errorf("faults: load-spike needs a positive duration, got %g", e.Duration)
		}
	case AgentCrash:
		// Duration 0 = down until an explicit AgentRestart; negative
		// downtimes are caught by the generic check above.
	case AgentRestart:
		if e.Duration != 0 {
			return fmt.Errorf("faults: agent-restart %s is instantaneous; drop the duration (%g)", e.Node, e.Duration)
		}
	default:
		return fmt.Errorf("faults: unknown kind %d", int(e.Kind))
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Schedule is a full fault plan for one simulation run.
type Schedule struct {
	Events []Event
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// HasKind reports whether the schedule contains at least one event of the
// given kind. The runtime uses it to decide whether a run needs a
// write-ahead log (any DriverCrash does).
func (s *Schedule) HasKind(k Kind) bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// WithoutKind returns a copy of the schedule with every event of the given
// kind removed. The recovery harness uses it to derive the unfailed
// reference plan from a driver-crash plan: same worker faults, no crash.
func (s *Schedule) WithoutKind(k Kind) *Schedule {
	if s == nil {
		return nil
	}
	out := &Schedule{}
	for _, e := range s.Events {
		if e.Kind != k {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Validate checks every event and the schedule's cross-event consistency,
// returning the first error. Events in one overlap scope (see
// overlapScope) may not have overlapping windows; pairs are compared in
// event order, so a plan with several overlaps always reports the same
// one.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for _, e := range s.Events {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	for i, a := range s.Events {
		sa, ok := overlapScope(a)
		if !ok {
			continue
		}
		for _, b := range s.Events[i+1:] {
			if sb, ok := overlapScope(b); ok && sb == sa && crashWindowsOverlap(a, b) {
				return overlapError(a, b)
			}
		}
	}
	return nil
}

// scope is a set of events whose windows may not overlap.
type scope struct {
	kind Kind
	node string
}

// overlapScope returns the event's overlap scope; ok is false for kinds
// whose windows compose freely.
//   - A node cannot crash while it is already down, so two crash windows
//     of one node encode an impossible state (a permanent crash — Duration
//     0 — occupies the rest of the run). The same holds for the driver,
//     which cannot crash again while it waits to restart, and for an
//     agent (a Duration-0 agent crash stays down until an explicit
//     restart, i.e. an unbounded window).
//   - A node cannot receive a second preemption notice while an earlier
//     notice's grace window is still open: the instance is already doomed.
//     (A later notice after a kill is fine — it models the re-acquired
//     instance being reclaimed again.)
//   - The plane applies one factor per (kind, scope) message-fault window,
//     "" being the global scope, so an overlap encodes an ambiguous
//     severity. Distinct scopes and distinct kinds compose fine.
//   - Load spikes share one global scope, and the streaming runtime
//     applies a single multiplier per window, so overlapping spikes would
//     encode an ambiguous offered load.
func overlapScope(e Event) (scope, bool) {
	switch {
	case e.Kind == DriverCrash, e.Kind == LoadSpike:
		return scope{kind: e.Kind}, true
	case e.Kind == NodeCrash, e.Kind == SpotPreempt, e.Kind == AgentCrash, e.Kind.IsMessageKind():
		return scope{kind: e.Kind, node: e.Node}, true
	}
	return scope{}, false
}

// overlapError describes two overlapping events of one scope.
func overlapError(a, b Event) error {
	switch a.Kind {
	case NodeCrash:
		return fmt.Errorf("faults: overlapping crash windows on %s (%s / %s)", a.Node, a, b)
	case SpotPreempt:
		return fmt.Errorf("faults: overlapping preemption notices on %s (%s / %s)", a.Node, a, b)
	case DriverCrash:
		return fmt.Errorf("faults: overlapping driver-crash windows (%s / %s)", a, b)
	case LoadSpike:
		return fmt.Errorf("faults: overlapping load-spike windows (%s / %s)", a, b)
	case AgentCrash:
		return fmt.Errorf("faults: overlapping agent-crash windows on %s (%s / %s)", a.Node, a, b)
	}
	return fmt.Errorf("faults: overlapping %s windows on scope %q (%s / %s)", a.Kind, a.Node, a, b)
}

// crashWindowsOverlap reports whether two NodeCrash events of one node
// describe overlapping down-windows. Duration 0 is permanent, i.e. an
// unbounded window.
func crashWindowsOverlap(a, b Event) bool {
	if b.At < a.At {
		a, b = b, a
	}
	return a.Duration == 0 || b.At < a.At+a.Duration
}

// sorted returns the events ordered by (At, Node, Kind) so installation
// order — and therefore simx timer tie-breaking — is independent of how
// the schedule was assembled.
func (s *Schedule) sorted() []Event {
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].At != evs[b].At {
			return evs[a].At < evs[b].At
		}
		if evs[a].Node != evs[b].Node {
			return evs[a].Node < evs[b].Node
		}
		return evs[a].Kind < evs[b].Kind
	})
	return evs
}

// GenConfig parameterizes RandomSchedule.
type GenConfig struct {
	// Horizon is the time window faults are drawn from, in seconds.
	Horizon float64
	// Crashes is the number of NodeCrash events (each with recovery
	// between MinRecovery and MaxRecovery; a crash has PermanentProb
	// chance of never recovering).
	Crashes       int
	MinRecovery   float64
	MaxRecovery   float64
	PermanentProb float64
	// Degrades is the number of NIC/disk degradation windows (an even
	// coin picks NIC vs disk).
	Degrades    int
	MinFactor   float64
	MaxFactor   float64
	MinDuration float64
	MaxDuration float64
	// HeartbeatLosses is the number of heartbeat-suppression windows.
	HeartbeatLosses int
	// CPUDegrades is the number of compute-throttle windows (gray
	// failure: the node stays up but runs at Factor × nominal speed).
	CPUDegrades int
	// MemPressures is the number of heap-squeeze windows (gray failure:
	// GC cost is amplified as if the heap were Factor × nominal).
	MemPressures int
	// TaskFlakes is the number of transient task-failure windows; each
	// attempt started on the node during the window fails with a
	// probability drawn between MinFlakeProb and MaxFlakeProb.
	TaskFlakes   int
	MinFlakeProb float64
	MaxFlakeProb float64
	// DriverCrashes is the number of driver kill points; each restarts
	// after a delay drawn between MinDriverRestart and MaxDriverRestart.
	// These fields sit last so their RNG draws append to — never reorder —
	// the draw sequence of pre-existing plans: a seed's worker-fault trace
	// is unchanged by the driver-crash extension.
	DriverCrashes    int
	MinDriverRestart float64
	MaxDriverRestart float64
	// SpotPreempts is the number of spot-reclamation events; each delivers
	// a notice, then kills the node after a grace window drawn between
	// MinGrace and MaxGrace. Like the driver-crash fields these sit last so
	// their RNG draws append to the draw sequence of pre-existing plans.
	SpotPreempts int
	MinGrace     float64
	MaxGrace     float64
	// MsgDrops/MsgDups/MsgDelays/MsgReorders count control-plane message
	// fault windows for the federation plane; each scopes to one node's
	// edges or (with probability 1/(len(nodes)+1)) to every edge, with a
	// hit probability between minMsgFactor and maxMsgFactor and (for
	// MsgDelay) an extra latency between minMsgDelay and maxMsgDelay.
	// These draw last of all — after SpotPreempts — so pre-existing seeds'
	// fault traces are unchanged by the message-fault extension.
	MsgDrops    int
	MsgDups     int
	MsgDelays   int
	MsgReorders int
	// LoadSpikes counts offered-load spike windows for streaming runs;
	// each multiplies every source's emission rate by a factor drawn
	// between MinSpikeFactor and MaxSpikeFactor (≥ 1). These draw last of
	// all — after the message faults — so pre-existing seeds' fault traces
	// are unchanged by the streaming extension.
	LoadSpikes     int
	MinSpikeFactor float64
	MaxSpikeFactor float64
	// AgentCrashes counts federation agent kill points; each crashed agent
	// restarts (and resynchronizes with the drivers) after a downtime drawn
	// between MinAgentDowntime and MaxAgentDowntime. These draw last of
	// all — after the load spikes — so pre-existing seeds' fault traces are
	// unchanged by the agent-fault extension.
	AgentCrashes     int
	MinAgentDowntime float64
	MaxAgentDowntime float64
}

// The message-fault windows' fixed bounds: each window's hit probability
// and, for MsgDelay, its extra one-way latency in seconds.
const (
	minMsgFactor float64 = 0.1
	maxMsgFactor float64 = 0.4
	minMsgDelay  float64 = 0.05
	maxMsgDelay  float64 = 0.5
)

func (g GenConfig) withDefaults() GenConfig {
	if g.Horizon <= 0 {
		g.Horizon = 300
	}
	if g.MinRecovery <= 0 {
		g.MinRecovery = 20
	}
	if g.MaxRecovery < g.MinRecovery {
		g.MaxRecovery = g.MinRecovery + 40
	}
	if g.MinFactor <= 0 {
		g.MinFactor = 0.05
	}
	if g.MaxFactor < g.MinFactor {
		g.MaxFactor = 0.5
	}
	if g.MinDuration <= 0 {
		g.MinDuration = 10
	}
	if g.MaxDuration < g.MinDuration {
		g.MaxDuration = 60
	}
	if g.MinFlakeProb <= 0 {
		g.MinFlakeProb = 0.1
	}
	if g.MaxFlakeProb < g.MinFlakeProb {
		g.MaxFlakeProb = 0.5
	}
	if g.MinDriverRestart <= 0 {
		g.MinDriverRestart = 2
	}
	if g.MaxDriverRestart < g.MinDriverRestart {
		g.MaxDriverRestart = g.MinDriverRestart + 6
	}
	if g.MinGrace <= 0 {
		g.MinGrace = 6
	}
	if g.MaxGrace < g.MinGrace {
		g.MaxGrace = g.MinGrace + 18
	}
	if g.MinSpikeFactor < 1 {
		g.MinSpikeFactor = 1.5
	}
	if g.MaxSpikeFactor < g.MinSpikeFactor {
		g.MaxSpikeFactor = 4
	}
	if g.MinAgentDowntime <= 0 {
		g.MinAgentDowntime = 3
	}
	if g.MaxAgentDowntime < g.MinAgentDowntime {
		g.MaxAgentDowntime = g.MinAgentDowntime + 5
	}
	return g
}

// RandomSchedule draws a reproducible schedule over the named nodes from
// the seed. The same (seed, nodes, cfg) triple always yields the same
// schedule, independent of call site. Crash draws that would overlap an
// already-drawn crash window on the same node are deterministically
// redrawn (and dropped after a bounded number of tries), so the result
// always passes Validate — which it asserts before returning.
func RandomSchedule(seed uint64, nodes []string, cfg GenConfig) *Schedule {
	cfg = cfg.withDefaults()
	if len(nodes) == 0 {
		return &Schedule{}
	}
	rng := stats.NewRand(seed ^ 0xfa17f5eed)
	var evs []Event
	// drawWindows appends count events from draw. An event whose window
	// overlaps an earlier one of its overlap scope (the rule Validate
	// enforces) is redrawn, and dropped after 16 tries; each draw closure
	// keeps its kind's RNG call order, so a seed's plan never changes.
	windows := make(map[scope][]Event)
	drawWindows := func(count int, draw func() Event) {
		for i := 0; i < count; i++ {
			for try := 0; try < 16; try++ {
				ev := draw()
				sc, _ := overlapScope(ev)
				overlaps := false
				for _, prev := range windows[sc] {
					if crashWindowsOverlap(prev, ev) {
						overlaps = true
						break
					}
				}
				if !overlaps {
					windows[sc] = append(windows[sc], ev)
					evs = append(evs, ev)
					break
				}
			}
		}
	}
	drawWindows(cfg.Crashes, func() Event {
		dur := rng.Range(cfg.MinRecovery, cfg.MaxRecovery)
		if rng.Float64() < cfg.PermanentProb {
			dur = 0
		}
		return Event{
			Kind:     NodeCrash,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: dur,
		}
	})
	for i := 0; i < cfg.Degrades; i++ {
		kind := NICDegrade
		if rng.Float64() < 0.5 {
			kind = DiskDegrade
		}
		evs = append(evs, Event{
			Kind:     kind,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinDuration, cfg.MaxDuration),
			Factor:   rng.Range(cfg.MinFactor, cfg.MaxFactor),
		})
	}
	for i := 0; i < cfg.HeartbeatLosses; i++ {
		evs = append(evs, Event{
			Kind:     HeartbeatLoss,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinDuration, cfg.MaxDuration),
		})
	}
	for i := 0; i < cfg.CPUDegrades; i++ {
		evs = append(evs, Event{
			Kind:     CPUDegrade,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinDuration, cfg.MaxDuration),
			Factor:   rng.Range(cfg.MinFactor, cfg.MaxFactor),
		})
	}
	for i := 0; i < cfg.MemPressures; i++ {
		evs = append(evs, Event{
			Kind:     MemPressure,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinDuration, cfg.MaxDuration),
			Factor:   rng.Range(cfg.MinFactor, cfg.MaxFactor),
		})
	}
	for i := 0; i < cfg.TaskFlakes; i++ {
		evs = append(evs, Event{
			Kind:     TaskFlake,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinDuration, cfg.MaxDuration),
			Factor:   rng.Range(cfg.MinFlakeProb, cfg.MaxFlakeProb),
		})
	}
	// The kinds below draw in the order they were added to GenConfig, so
	// each extension appended to — never reordered — older seeds' draws.
	drawWindows(cfg.DriverCrashes, func() Event {
		return Event{
			Kind:     DriverCrash,
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinDriverRestart, cfg.MaxDriverRestart),
		}
	})
	drawWindows(cfg.SpotPreempts, func() Event {
		return Event{
			Kind:     SpotPreempt,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinGrace, cfg.MaxGrace),
		}
	})
	// A message fault's scope draws len(nodes)+1 ways: index len(nodes)
	// is the empty scope, i.e. every protocol edge.
	drawMsg := func(kind Kind, count int) {
		drawWindows(count, func() Event {
			node := ""
			if idx := rng.Intn(len(nodes) + 1); idx < len(nodes) {
				node = nodes[idx]
			}
			ev := Event{
				Kind:     kind,
				Node:     node,
				At:       rng.Range(0, cfg.Horizon),
				Duration: rng.Range(cfg.MinDuration, cfg.MaxDuration),
				Factor:   rng.Range(minMsgFactor, maxMsgFactor),
			}
			if kind == MsgDelay {
				ev.Delay = rng.Range(minMsgDelay, maxMsgDelay)
			}
			return ev
		})
	}
	drawMsg(MsgDrop, cfg.MsgDrops)
	drawMsg(MsgDup, cfg.MsgDups)
	drawMsg(MsgDelay, cfg.MsgDelays)
	drawMsg(MsgReorder, cfg.MsgReorders)
	drawWindows(cfg.LoadSpikes, func() Event {
		return Event{
			Kind:     LoadSpike,
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinDuration, cfg.MaxDuration),
			Factor:   rng.Range(cfg.MinSpikeFactor, cfg.MaxSpikeFactor),
		}
	})
	drawWindows(cfg.AgentCrashes, func() Event {
		return Event{
			Kind:     AgentCrash,
			Node:     nodes[rng.Intn(len(nodes))],
			At:       rng.Range(0, cfg.Horizon),
			Duration: rng.Range(cfg.MinAgentDowntime, cfg.MaxAgentDowntime),
		}
	})
	s := &Schedule{Events: evs}
	if err := s.Validate(); err != nil {
		// Construction guarantees validity; a failure here is a bug in
		// the generator, not in the caller's inputs.
		panic(fmt.Sprintf("faults: RandomSchedule produced an invalid plan: %v", err))
	}
	return s
}

// SpotSchedule draws a reproducible spot-reclamation plan: each node with
// a positive hazard (expected preemptions/hour) is reclaimed as a Poisson
// process at that rate over the horizon, so price-correlated hazards —
// deeper spot discounts, hotter instances — translate directly into more
// preemptions on the cheap capacity. Grace windows draw between MinGrace
// and MaxGrace; successive windows on one node never overlap because the
// next arrival is drawn from the end of the previous window (a reclaimed
// instance must be re-acquired before it can be reclaimed again). Nodes
// absent from hazards (or with hazard ≤ 0) are on-demand and untouched.
func SpotSchedule(seed uint64, nodes []string, hazards map[string]float64, cfg GenConfig) *Schedule {
	cfg = cfg.withDefaults()
	rng := stats.NewRand(seed ^ 0x5b07e5eed)
	sorted := make([]string, len(nodes))
	copy(sorted, nodes)
	sort.Strings(sorted)
	var evs []Event
	for _, node := range sorted {
		rate := hazards[node] / 3600 // preemptions per second
		if rate <= 0 {
			continue
		}
		t := rng.Exp(rate)
		for t < cfg.Horizon {
			grace := rng.Range(cfg.MinGrace, cfg.MaxGrace)
			evs = append(evs, Event{Kind: SpotPreempt, Node: node, At: t, Duration: grace})
			t = t + grace + rng.Exp(rate)
		}
	}
	s := &Schedule{Events: evs}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("faults: SpotSchedule produced an invalid plan: %v", err))
	}
	return s
}
