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
	"slices"
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

// nodeRule says what an event's Node names.
type nodeRule int

const (
	// nodeRequired: a worker node (the zero value, so an unknown kind
	// without a node is reported as such before it is reported unknown).
	nodeRequired nodeRule = iota
	// nodeNone: no node; the fault hits the driver or the offered load.
	nodeNone
	// nodeEdges: one agent's protocol edges, or "" for every edge.
	nodeEdges
)

// factorRule says what range an event's Factor must lie in.
type factorRule int

const (
	factorUnused   factorRule = iota
	factorFraction            // (0,1]: a capacity share or a probability
	factorAmplify             // ≥ 1: a multiplier on the offered load
)

// durationRule says whether an event's Duration may or must be zero.
type durationRule int

const (
	durationPositive durationRule = iota // a window: 0 is invalid
	durationOptional                     // 0 is an unbounded window
	durationZero                         // instantaneous: must be 0
)

// kindRow is everything the package knows about one fault kind.
type kindRow struct {
	name string
	node nodeRule
	// nodeNote ends the error for a nodeNone event that names a node.
	nodeNote string
	factor   factorRule
	duration durationRule
	// durationNoun names a positive Duration in its kind's error; empty
	// means the generic windowed-fault text.
	durationNoun string
	// needsDelay: Delay must be positive (MsgDelay).
	needsDelay bool
	// overlap names the kind's windows in an overlap error; empty means
	// its windows compose freely. A scoped kind's events may not overlap
	// within one (kind, node) pair, or within the kind for nodeNone kinds.
	//   - A node cannot crash while it is already down, so two crash
	//     windows of one node encode an impossible state (a permanent
	//     crash — Duration 0 — occupies the rest of the run). The same
	//     holds for the driver, which cannot crash again while it waits to
	//     restart, and for an agent (a Duration-0 agent crash stays down
	//     until an explicit restart, i.e. an unbounded window).
	//   - A node cannot receive a second preemption notice while an
	//     earlier notice's grace window is still open: the instance is
	//     already doomed. (A later notice after a kill is fine — it models
	//     the re-acquired instance being reclaimed again.)
	//   - The plane applies one factor per (kind, scope) message-fault
	//     window, "" being the global scope, so an overlap encodes an
	//     ambiguous severity. Distinct scopes and distinct kinds compose.
	//   - The streaming runtime applies a single multiplier per load-spike
	//     window, so overlapping spikes would encode an ambiguous load.
	overlap string
	// apply is the node injector's handler; nil for the message kinds,
	// which the federation plane installs itself.
	apply func(*Injector, Event)
}

// kinds holds one row per Kind. A new kind appends a row here and its
// generator draw at the end of RandomSchedule.
var kinds = [...]kindRow{
	NodeCrash:     {name: "node-crash", duration: durationOptional, overlap: "crash windows", apply: (*Injector).crash},
	NICDegrade:    {name: "nic-degrade", factor: factorFraction, apply: (*Injector).degradeNIC},
	DiskDegrade:   {name: "disk-degrade", factor: factorFraction, apply: (*Injector).degradeDisk},
	HeartbeatLoss: {name: "heartbeat-loss", apply: (*Injector).loseHeartbeats},
	CPUDegrade:    {name: "cpu-degrade", factor: factorFraction, apply: (*Injector).degradeCPU},
	MemPressure:   {name: "mem-pressure", factor: factorFraction, apply: (*Injector).pressureMem},
	TaskFlake:     {name: "task-flake", factor: factorFraction, apply: (*Injector).flakeTasks},
	DriverCrash: {name: "driver-crash", node: nodeNone, durationNoun: "restart delay",
		overlap: "driver-crash windows", apply: (*Injector).crashDriver},
	SpotPreempt: {name: "spot-preempt", durationNoun: "grace window",
		overlap: "preemption notices", apply: (*Injector).preempt},
	MsgDrop:  {name: "msg-drop", node: nodeEdges, factor: factorFraction, overlap: "msg-drop windows"},
	MsgDup:   {name: "msg-dup", node: nodeEdges, factor: factorFraction, overlap: "msg-dup windows"},
	MsgDelay: {name: "msg-delay", node: nodeEdges, factor: factorFraction, needsDelay: true, overlap: "msg-delay windows"},
	MsgReorder: {name: "msg-reorder", node: nodeEdges, factor: factorFraction,
		overlap: "msg-reorder windows"},
	LoadSpike: {name: "load-spike", node: nodeNone, nodeNote: "; spikes hit the offered load",
		factor: factorAmplify, durationNoun: "duration", overlap: "load-spike windows", apply: (*Injector).spikeLoad},
	AgentCrash:   {name: "agent-crash", duration: durationOptional, overlap: "agent-crash windows", apply: (*Injector).crashAgent},
	AgentRestart: {name: "agent-restart", duration: durationZero, apply: (*Injector).restartAgent},
}

// row returns the kind's table row; an unknown kind gets the zero row,
// whose empty name marks it unknown.
func (k Kind) row() kindRow {
	if k < 0 || int(k) >= len(kinds) {
		return kindRow{}
	}
	return kinds[k]
}

// IsMessageKind reports whether the kind targets the federation control
// plane rather than a cluster node. The node Injector ignores these; the
// federation plane installs them.
func (k Kind) IsMessageKind() bool { return k.row().node == nodeEdges }

// String names the kind.
func (k Kind) String() string {
	if name := k.row().name; name != "" {
		return name
	}
	return fmt.Sprintf("faults.Kind(%d)", int(k))
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
	row := e.Kind.row()
	switch {
	case e.Node == "" && row.node == nodeRequired:
		return fmt.Errorf("faults: %s event without a node", e.Kind)
	case e.Node != "" && row.node == nodeNone:
		return fmt.Errorf("faults: %s event names a node (%s)%s", e.Kind, e.Node, row.nodeNote)
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
	case row.name == "":
		return fmt.Errorf("faults: unknown kind %d", int(e.Kind))
	case row.factor == factorFraction && (e.Factor <= 0 || e.Factor > 1):
		return fmt.Errorf("faults: %s %s: factor %g outside (0,1]", e.Kind, e.Node, e.Factor)
	case row.factor == factorAmplify && e.Factor < 1:
		return fmt.Errorf("faults: %s factor %g below 1; spikes amplify the offered load", e.Kind, e.Factor)
	case row.duration == durationPositive && e.Duration == 0 && row.durationNoun != "":
		return fmt.Errorf("faults: %s needs a positive %s, got %g", e.Kind, row.durationNoun, e.Duration)
	case row.duration == durationPositive && e.Duration == 0:
		return fmt.Errorf("faults: %s %s: windowed fault needs a duration", e.Kind, e.Node)
	case row.duration == durationZero && e.Duration != 0:
		return fmt.Errorf("faults: %s %s is instantaneous; drop the duration (%g)", e.Kind, e.Node, e.Duration)
	case row.needsDelay && e.Delay == 0:
		return fmt.Errorf("faults: %s %s needs a positive delay, got %g", e.Kind, e.Node, e.Delay)
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

// overlapScope returns the event's overlap scope (see kindRow.overlap);
// ok is false for kinds whose windows compose freely.
func overlapScope(e Event) (scope, bool) {
	row := e.Kind.row()
	if row.overlap == "" {
		return scope{}, false
	}
	if row.node == nodeNone {
		return scope{kind: e.Kind}, true
	}
	return scope{kind: e.Kind, node: e.Node}, true
}

// overlapError describes two overlapping events of one scope.
func overlapError(a, b Event) error {
	row := a.Kind.row()
	where := ""
	switch row.node {
	case nodeRequired:
		where = " on " + a.Node
	case nodeEdges:
		where = fmt.Sprintf(" on scope %q", a.Node)
	}
	return fmt.Errorf("faults: overlapping %s%s (%s / %s)", row.overlap, where, a, b)
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

// GenConfig parameterizes RandomSchedule. Each count draws that many
// events of its kind; RandomSchedule draws the kinds in the order they
// were added here, so each extension appended to — never reordered —
// older seeds' draws.
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
	// coin picks NIC vs disk). Every windowed node fault lasts between
	// MinDuration and MaxDuration and the capacity ones keep Factor of
	// nominal, between MinFactor and MaxFactor.
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
	// probability between minFlakeProb and maxFlakeProb.
	TaskFlakes int
	// DriverCrashes is the number of driver kill points; each restarts
	// after a delay drawn between MinDriverRestart and MaxDriverRestart.
	DriverCrashes    int
	MinDriverRestart float64
	MaxDriverRestart float64
	// SpotPreempts is the number of spot-reclamation events; each delivers
	// a notice, then kills the node after a grace window drawn between
	// MinGrace and MaxGrace.
	SpotPreempts int
	MinGrace     float64
	MaxGrace     float64
	// MsgDrops/MsgDups/MsgDelays/MsgReorders count control-plane message
	// fault windows for the federation plane; each scopes to one node's
	// edges or (with probability 1/(len(nodes)+1)) to every edge, with a
	// hit probability between minMsgFactor and maxMsgFactor and (for
	// MsgDelay) an extra latency between minMsgDelay and maxMsgDelay.
	MsgDrops    int
	MsgDups     int
	MsgDelays   int
	MsgReorders int
	// LoadSpikes counts offered-load spike windows for streaming runs;
	// each multiplies every source's emission rate by a factor between
	// minSpikeFactor and maxSpikeFactor.
	LoadSpikes int
	// AgentCrashes counts federation agent kill points; each crashed agent
	// restarts (and resynchronizes with the drivers) after a downtime
	// between minAgentDowntime and maxAgentDowntime.
	AgentCrashes int
}

// The generator's fixed bounds, for the kinds whose bounds no caller
// varies.
const (
	minFlakeProb     float64 = 0.15
	maxFlakeProb     float64 = 0.5
	minMsgFactor     float64 = 0.1
	maxMsgFactor     float64 = 0.4
	minMsgDelay      float64 = 0.05
	maxMsgDelay      float64 = 0.5
	minSpikeFactor   float64 = 1.5
	maxSpikeFactor   float64 = 3
	minAgentDowntime float64 = 3
	maxAgentDowntime float64 = 8
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
	return g
}

// bounds is a [lo, hi) range to draw one field from; the zero value
// means the field is not drawn.
type bounds struct{ lo, hi float64 }

// recipe says how RandomSchedule draws one kind's events.
type recipe struct {
	count int
	kind  Kind
	// lead, if set, makes the draws that precede the node and returns the
	// event's kind (and any field it drew): the crash's recovery time and
	// permanence coin, the degradation's NIC/disk coin.
	lead                    func() Event
	duration, factor, delay bounds
}

// RandomSchedule draws a reproducible schedule over the named nodes from
// the seed. The same (seed, nodes, cfg) triple always yields the same
// schedule, independent of call site. Each event draws its node (per its
// kind's node rule), then At, Duration, Factor and Delay, in Event field
// order. An event whose window overlaps an earlier one of its overlap
// scope (the rule Validate enforces) is deterministically redrawn, and
// dropped after 16 tries, so the result always passes Validate — which it
// asserts before returning.
func RandomSchedule(seed uint64, nodes []string, cfg GenConfig) *Schedule {
	cfg = cfg.withDefaults()
	if len(nodes) == 0 {
		return &Schedule{}
	}
	rng := stats.NewRand(seed ^ 0xfa17f5eed)
	drawIn := func(b bounds, dst *float64) {
		if b != (bounds{}) {
			*dst = rng.Range(b.lo, b.hi)
		}
	}
	draw := func(r recipe) Event {
		ev := Event{Kind: r.kind}
		if r.lead != nil {
			ev = r.lead()
		}
		switch ev.Kind.row().node {
		case nodeRequired:
			ev.Node = nodes[rng.Intn(len(nodes))]
		case nodeEdges:
			// Index len(nodes) is the empty scope, i.e. every edge.
			if idx := rng.Intn(len(nodes) + 1); idx < len(nodes) {
				ev.Node = nodes[idx]
			}
		}
		ev.At = rng.Range(0, cfg.Horizon)
		drawIn(r.duration, &ev.Duration)
		drawIn(r.factor, &ev.Factor)
		drawIn(r.delay, &ev.Delay)
		return ev
	}
	window := bounds{cfg.MinDuration, cfg.MaxDuration}
	severity := bounds{cfg.MinFactor, cfg.MaxFactor}
	msgHit := bounds{minMsgFactor, maxMsgFactor}
	// In the order the kinds were added (see GenConfig): a new kind
	// appends its recipe last.
	recipes := []recipe{
		{count: cfg.Crashes, lead: func() Event {
			dur := rng.Range(cfg.MinRecovery, cfg.MaxRecovery)
			if rng.Float64() < cfg.PermanentProb {
				dur = 0
			}
			return Event{Kind: NodeCrash, Duration: dur}
		}},
		{count: cfg.Degrades, lead: func() Event {
			if rng.Float64() < 0.5 {
				return Event{Kind: DiskDegrade}
			}
			return Event{Kind: NICDegrade}
		}, duration: window, factor: severity},
		{count: cfg.HeartbeatLosses, kind: HeartbeatLoss, duration: window},
		{count: cfg.CPUDegrades, kind: CPUDegrade, duration: window, factor: severity},
		{count: cfg.MemPressures, kind: MemPressure, duration: window, factor: severity},
		{count: cfg.TaskFlakes, kind: TaskFlake, duration: window, factor: bounds{minFlakeProb, maxFlakeProb}},
		{count: cfg.DriverCrashes, kind: DriverCrash, duration: bounds{cfg.MinDriverRestart, cfg.MaxDriverRestart}},
		{count: cfg.SpotPreempts, kind: SpotPreempt, duration: bounds{cfg.MinGrace, cfg.MaxGrace}},
		{count: cfg.MsgDrops, kind: MsgDrop, duration: window, factor: msgHit},
		{count: cfg.MsgDups, kind: MsgDup, duration: window, factor: msgHit},
		{count: cfg.MsgDelays, kind: MsgDelay, duration: window, factor: msgHit, delay: bounds{minMsgDelay, maxMsgDelay}},
		{count: cfg.MsgReorders, kind: MsgReorder, duration: window, factor: msgHit},
		{count: cfg.LoadSpikes, kind: LoadSpike, duration: window, factor: bounds{minSpikeFactor, maxSpikeFactor}},
		{count: cfg.AgentCrashes, kind: AgentCrash, duration: bounds{minAgentDowntime, maxAgentDowntime}},
	}
	var evs []Event
	windows := make(map[scope][]Event)
	for _, r := range recipes {
		for i := 0; i < r.count; i++ {
			for try := 0; try < 16; try++ {
				ev := draw(r)
				if sc, scoped := overlapScope(ev); scoped {
					overlaps := func(prev Event) bool { return crashWindowsOverlap(prev, ev) }
					if slices.ContainsFunc(windows[sc], overlaps) {
						continue
					}
					windows[sc] = append(windows[sc], ev)
				}
				evs = append(evs, ev)
				break
			}
		}
	}
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
