package faults

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/simx"
	"rupam/internal/tracing"
)

func TestEventValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Event{
		{Kind: NodeCrash},                                       // no node
		{Kind: NodeCrash, Node: "a", At: -1},                    // negative time
		{Kind: NodeCrash, Node: "a", Duration: -2},              // negative duration
		{Kind: NICDegrade, Node: "a", Duration: 5},              // factor 0
		{Kind: NICDegrade, Node: "a", Duration: 5, Factor: 1.5}, // factor > 1
		{Kind: DiskDegrade, Node: "a", Factor: 0.5},             // no duration
		{Kind: HeartbeatLoss, Node: "a"},                        // no duration
		{Kind: Kind(99), Node: "a"},                             // unknown kind
		// Non-finite values pass every range check unless refused first.
		{Kind: SpotPreempt, Node: "a", At: nan, Duration: 5},               // NaN notice time
		{Kind: SpotPreempt, Node: "a", At: 5, Duration: nan},               // NaN grace window
		{Kind: NodeCrash, Node: "a", At: inf},                              // infinite time
		{Kind: NodeCrash, Node: "a", At: 1, Duration: inf},                 // infinite recovery
		{Kind: DriverCrash, At: 1, Duration: nan},                          // NaN restart delay
		{Kind: CPUDegrade, Node: "a", At: 1, Duration: 5, Factor: nan},     // NaN factor
		{Kind: LoadSpike, At: 1, Duration: 5, Factor: inf},                 // infinite spike
		{Kind: MsgDelay, At: 1, Duration: 5, Factor: 0.3, Delay: inf},      // infinite delay
		{Kind: MsgDelay, At: 1, Duration: 5, Factor: 0.3, Delay: -inf},     // negative infinity
		{Kind: AgentCrash, Node: "a", At: 1, Duration: nan},                // NaN downtime
		{Kind: HeartbeatLoss, Node: "a", At: 1, Duration: 5, Factor: -inf}, // unused field
	}
	for _, e := range bad {
		if e.Validate() == nil {
			t.Errorf("event %v validated", e)
		}
	}
	good := []Event{
		{Kind: NodeCrash, Node: "a", At: 10},              // permanent crash
		{Kind: NodeCrash, Node: "a", At: 10, Duration: 5}, // with recovery
		{Kind: NICDegrade, Node: "a", At: 1, Duration: 5, Factor: 0.25},
		{Kind: DiskDegrade, Node: "a", At: 1, Duration: 5, Factor: 1},
		{Kind: HeartbeatLoss, Node: "a", At: 1, Duration: 5},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("event %v rejected: %v", e, err)
		}
	}
}

func TestScheduleEmptyAndValidate(t *testing.T) {
	var nilSched *Schedule
	if !nilSched.Empty() || nilSched.Validate() != nil {
		t.Fatal("nil schedule must be empty and valid")
	}
	if !(&Schedule{}).Empty() {
		t.Fatal("zero schedule must be empty")
	}
	s := &Schedule{Events: []Event{{Kind: HeartbeatLoss, Node: "a"}}}
	if s.Empty() || s.Validate() == nil {
		t.Fatal("invalid event must fail schedule validation")
	}
}

func TestSortedIsStableAndOrderIndependent(t *testing.T) {
	a := Event{Kind: NodeCrash, Node: "a", At: 5}
	b := Event{Kind: NICDegrade, Node: "b", At: 1, Duration: 2, Factor: 0.5}
	c := Event{Kind: HeartbeatLoss, Node: "a", At: 5, Duration: 3}
	s1 := &Schedule{Events: []Event{a, b, c}}
	s2 := &Schedule{Events: []Event{c, a, b}}
	if !reflect.DeepEqual(s1.sorted(), s2.sorted()) {
		t.Fatal("sorted order depends on assembly order")
	}
	if got := s1.sorted()[0]; got != b {
		t.Fatalf("earliest event not first: %v", got)
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	cfg := GenConfig{Crashes: 3, Degrades: 4, HeartbeatLosses: 2, PermanentProb: 0.3}
	a := RandomSchedule(7, nodes, cfg)
	b := RandomSchedule(7, nodes, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	if len(a.Events) != 9 {
		t.Fatalf("want 9 events, got %d", len(a.Events))
	}
	c := RandomSchedule(8, nodes, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if !RandomSchedule(7, nil, cfg).Empty() {
		t.Fatal("no nodes must yield an empty schedule")
	}
}

// twoNode builds a 2-node cluster with executors for injector tests.
func twoNode(t *testing.T) (*simx.Engine, *cluster.Cluster, map[string]*executor.Executor) {
	t.Helper()
	eng := simx.NewEngine()
	clu := cluster.New(eng)
	spec := cluster.NodeSpec{
		Class: "t", Cores: 4, FreqGHz: 2,
		MemBytes: 8 * cluster.GB, NetBandwidth: cluster.GbE(1),
		DiskReadBW: cluster.MBps(200), DiskWriteBW: cluster.MBps(100),
	}
	cache := executor.NewCacheTracker()
	execs := make(map[string]*executor.Executor)
	for _, name := range []string{"a", "b"} {
		s := spec
		s.Name = name
		clu.AddNode(s)
		executor.New(eng, clu, clu.Node(name), cache, execs, executor.Config{HeapBytes: 4 * cluster.GB, Seed: 1})
	}
	return eng, clu, execs
}

func TestInjectorAppliesAndRestores(t *testing.T) {
	eng, clu, execs := twoNode(t)
	inj := NewInjector(eng, clu, execs)
	col := tracing.NewCollector()
	col.Bind(eng)
	inj.Collector = col
	inj.Install(&Schedule{Events: []Event{
		{Kind: NodeCrash, Node: "a", At: 1, Duration: 2},
		{Kind: NICDegrade, Node: "b", At: 1, Duration: 3, Factor: 0.5},
		{Kind: DiskDegrade, Node: "b", At: 1, Duration: 3, Factor: 0.25},
		{Kind: HeartbeatLoss, Node: "b", At: 2, Duration: 2},
	}})

	eng.At(1.5, func() {
		if !execs["a"].FailStopped() || !inj.Suppressed("a") {
			t.Error("a not fail-stopped at t=1.5")
		}
		if cap := clu.Node("b").DiskRead.Capacity(); cap != cluster.MBps(200)*0.25 {
			t.Errorf("b disk read capacity = %v mid-window", cap)
		}
	})
	eng.At(2.5, func() {
		if !inj.Suppressed("b") {
			t.Error("b heartbeats not suppressed at t=2.5")
		}
	})
	eng.At(5.0, func() {
		if execs["a"].FailStopped() || inj.Suppressed("a") || inj.Suppressed("b") {
			t.Error("faults not lifted at t=5")
		}
		if cap := clu.Node("b").DiskRead.Capacity(); cap != cluster.MBps(200) {
			t.Errorf("b disk read capacity = %v after window", cap)
		}
	})
	eng.Run()

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct{ Name, Cat, Ph string }
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, e := range tr.TraceEvents {
		if e.Cat == "fault" && e.Ph == "X" {
			spans[e.Name]++
		}
	}
	want := map[string]int{"crash": 1, "nic-degrade": 1, "disk-degrade": 1, "heartbeat-loss": 1}
	if !reflect.DeepEqual(spans, want) {
		t.Fatalf("fault spans by kind = %v, want %v", spans, want)
	}
	if !strings.Contains(buf.String(), "recovery 2s") {
		t.Fatalf("crash span does not carry its recovery time:\n%s", buf.String())
	}
}

func TestInstallRejectsUnknownNode(t *testing.T) {
	eng, clu, execs := twoNode(t)
	inj := NewInjector(eng, clu, execs)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node accepted")
		}
	}()
	inj.Install(&Schedule{Events: []Event{{Kind: NodeCrash, Node: "ghost", At: 1}}})
}

func TestInstallRejectsInvalidSchedule(t *testing.T) {
	eng, clu, execs := twoNode(t)
	inj := NewInjector(eng, clu, execs)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid schedule accepted")
		}
	}()
	inj.Install(&Schedule{Events: []Event{{Kind: NICDegrade, Node: "a", At: 1, Duration: 2, Factor: 0}}})
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		NodeCrash: "node-crash", NICDegrade: "nic-degrade",
		DiskDegrade: "disk-degrade", HeartbeatLoss: "heartbeat-loss",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(42).String(), "42") {
		t.Error("unknown kind string uninformative")
	}
}

func TestMsgEventValidate(t *testing.T) {
	bad := []Event{
		{Kind: MsgDrop, At: 1, Duration: 5},                             // factor 0
		{Kind: MsgDup, At: 1, Duration: 5, Factor: 1.5},                 // factor > 1
		{Kind: MsgDrop, At: 1, Factor: 0.3},                             // no duration
		{Kind: MsgDelay, At: 1, Duration: 5, Factor: 0.3},               // no delay
		{Kind: MsgDelay, At: 1, Duration: 5, Factor: 0.3, Delay: -0.1},  // negative delay
		{Kind: MsgReorder, Node: "a", At: -1, Duration: 5, Factor: 0.3}, // negative time
		{Kind: MsgReorder, Node: "a", At: 1, Duration: -5, Factor: 0.3}, // negative duration
	}
	for _, e := range bad {
		if e.Validate() == nil {
			t.Errorf("event %v validated", e)
		}
	}
	good := []Event{
		{Kind: MsgDrop, At: 1, Duration: 5, Factor: 0.3},         // global scope
		{Kind: MsgDup, Node: "a", At: 1, Duration: 5, Factor: 1}, // node scope
		{Kind: MsgDelay, At: 1, Duration: 5, Factor: 0.3, Delay: 0.2},
		{Kind: MsgReorder, Node: "a", At: 1, Duration: 5, Factor: 0.3},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("event %v rejected: %v", e, err)
		}
	}
}

func TestMsgWindowOverlapValidation(t *testing.T) {
	// Same kind, same scope, overlapping windows: rejected.
	s := &Schedule{Events: []Event{
		{Kind: MsgDrop, At: 1, Duration: 10, Factor: 0.3},
		{Kind: MsgDrop, At: 5, Duration: 10, Factor: 0.2},
	}}
	if s.Validate() == nil {
		t.Fatal("overlapping same-kind same-scope msg windows validated")
	}
	// Different scope: fine.
	s = &Schedule{Events: []Event{
		{Kind: MsgDrop, At: 1, Duration: 10, Factor: 0.3},
		{Kind: MsgDrop, Node: "a", At: 5, Duration: 10, Factor: 0.2},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("distinct scopes rejected: %v", err)
	}
	// Different kind, same scope and window: fine (kinds compose).
	s = &Schedule{Events: []Event{
		{Kind: MsgDrop, At: 1, Duration: 10, Factor: 0.3},
		{Kind: MsgDup, At: 1, Duration: 10, Factor: 0.3},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("distinct kinds rejected: %v", err)
	}
	// Same kind, same scope, disjoint windows: fine.
	s = &Schedule{Events: []Event{
		{Kind: MsgDelay, At: 1, Duration: 4, Factor: 0.3, Delay: 0.2},
		{Kind: MsgDelay, At: 6, Duration: 4, Factor: 0.3, Delay: 0.1},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint windows rejected: %v", err)
	}
}

func TestRandomScheduleDrawsMsgFaults(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	cfg := GenConfig{MsgDrops: 2, MsgDups: 1, MsgDelays: 2, MsgReorders: 1}
	a := RandomSchedule(7, nodes, cfg)
	b := RandomSchedule(7, nodes, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	count := map[Kind]int{}
	for _, ev := range a.Events {
		if !ev.Kind.IsMessageKind() {
			t.Fatalf("non-message event %v drawn by a msg-only config", ev)
		}
		count[ev.Kind]++
		if ev.Kind == MsgDelay && ev.Delay <= 0 {
			t.Fatalf("msg-delay drew non-positive delay: %v", ev)
		}
	}
	if count[MsgDrop] != 2 || count[MsgDup] != 1 || count[MsgDelay] != 2 || count[MsgReorder] != 1 {
		t.Fatalf("draw counts wrong: %v", count)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	// Adding message faults must not perturb the pre-existing draw
	// sequence: the worker-fault prefix of a mixed plan equals the plan
	// drawn without message faults.
	base := GenConfig{Crashes: 2, Degrades: 3, TaskFlakes: 2, DriverCrashes: 1, SpotPreempts: 1}
	ext := base
	ext.MsgDrops, ext.MsgReorders = 2, 1
	p0 := RandomSchedule(11, nodes, base)
	p1 := RandomSchedule(11, nodes, ext)
	if len(p1.Events) <= len(p0.Events) {
		t.Fatalf("extended plan not longer: %d vs %d", len(p1.Events), len(p0.Events))
	}
	if !reflect.DeepEqual(p0.Events, p1.Events[:len(p0.Events)]) {
		t.Fatal("message-fault draws perturbed the pre-existing fault trace")
	}
}

func TestInjectorSkipsMsgKinds(t *testing.T) {
	eng, clu, execs := twoNode(t)
	inj := NewInjector(eng, clu, execs)
	// A msg window scoped to an unknown "node" must not panic: scopes are
	// protocol addresses, not cluster nodes, and the injector ignores them.
	inj.Install(&Schedule{Events: []Event{
		{Kind: MsgDrop, Node: "driver:3", At: 1, Duration: 5, Factor: 0.5},
		{Kind: MsgDelay, At: 1, Duration: 5, Factor: 0.5, Delay: 0.2},
	}})
	if eng.Pending() != 0 {
		t.Fatalf("injector scheduled %d events for message faults", eng.Pending())
	}
}

func TestSpotScheduleDeterministicAndShaped(t *testing.T) {
	nodes := []string{"c", "a", "b", "d"}
	hazards := map[string]float64{"a": 60, "b": 120, "c": 0, "d": -5}
	cfg := GenConfig{Horizon: 600, MinGrace: 5, MaxGrace: 12}

	plan := SpotSchedule(7, nodes, hazards, cfg)
	if len(plan.Events) == 0 {
		t.Fatal("hazards of 60-120/hour over 10 minutes drew no preemptions")
	}

	// Same seed reproduces the plan bit-for-bit, and the draw order is
	// pinned to sorted node names, not the caller's slice order.
	again := SpotSchedule(7, []string{"d", "b", "a", "c"}, hazards, cfg)
	if !reflect.DeepEqual(plan, again) {
		t.Fatal("same seed and inputs drew a different plan")
	}
	if other := SpotSchedule(8, nodes, hazards, cfg); reflect.DeepEqual(plan, other) {
		t.Fatal("different seeds drew identical plans")
	}

	last := map[string]float64{}
	for _, ev := range plan.Events {
		if ev.Kind != SpotPreempt {
			t.Fatalf("non-preemption event %v in a spot plan", ev)
		}
		if ev.Node == "c" || ev.Node == "d" {
			t.Fatalf("on-demand node %s was reclaimed", ev.Node)
		}
		if ev.At >= cfg.Horizon {
			t.Fatalf("event at %.1f beyond horizon %.0f", ev.At, cfg.Horizon)
		}
		if ev.Duration < cfg.MinGrace || ev.Duration > cfg.MaxGrace {
			t.Fatalf("grace %.2f outside [%.0f, %.0f]", ev.Duration, cfg.MinGrace, cfg.MaxGrace)
		}
		// A reclaimed instance must be re-acquired before it can be warned
		// again: windows on one node never overlap.
		if ev.At < last[ev.Node] {
			t.Fatalf("node %s re-warned at %.2f while doomed until %.2f", ev.Node, ev.At, last[ev.Node])
		}
		last[ev.Node] = ev.At + ev.Duration
	}

	// The hotter hazard reclaims more often over a long horizon.
	count := map[string]int{}
	long := SpotSchedule(7, nodes, hazards, GenConfig{Horizon: 7200, MinGrace: 5, MaxGrace: 12})
	for _, ev := range long.Events {
		count[ev.Node]++
	}
	if count["b"] <= count["a"] {
		t.Fatalf("hazard 120/h drew %d events vs %d for 60/h", count["b"], count["a"])
	}
}

func TestValidateAgentFaultEvents(t *testing.T) {
	bad := []Event{
		{Kind: AgentCrash, At: 1, Duration: 5},                // no node
		{Kind: AgentCrash, Node: "n1", At: -1, Duration: 5},   // negative time
		{Kind: AgentCrash, Node: "n1", At: 1, Duration: -5},   // negative downtime
		{Kind: AgentRestart, At: 3},                           // no node
		{Kind: AgentRestart, Node: "n1", At: 3, Duration: 2},  // restarts are instantaneous
		{Kind: AgentRestart, Node: "n1", At: 3, Duration: -2}, // negative duration
	}
	for _, e := range bad {
		if e.Validate() == nil {
			t.Errorf("event %v validated", e)
		}
	}
	good := []Event{
		{Kind: AgentCrash, Node: "n1", At: 1, Duration: 5},
		{Kind: AgentCrash, Node: "n1", At: 1}, // down until an explicit restart
		{Kind: AgentRestart, Node: "n1", At: 3},
	}
	for _, e := range good {
		if err := e.Validate(); err != nil {
			t.Errorf("event %v rejected: %v", e, err)
		}
	}

	// An agent cannot crash while already down: overlapping crash windows
	// on one node are rejected, disjoint windows and distinct nodes pass.
	s := &Schedule{Events: []Event{
		{Kind: AgentCrash, Node: "n1", At: 2, Duration: 10},
		{Kind: AgentCrash, Node: "n1", At: 5, Duration: 3},
	}}
	if s.Validate() == nil {
		t.Fatal("overlapping agent-crash windows on one node validated")
	}
	s = &Schedule{Events: []Event{
		{Kind: AgentCrash, Node: "n1", At: 2}, // unbounded window
		{Kind: AgentCrash, Node: "n1", At: 50, Duration: 3},
	}}
	if s.Validate() == nil {
		t.Fatal("crash after a permanent agent crash on one node validated")
	}
	s = &Schedule{Events: []Event{
		{Kind: AgentCrash, Node: "n1", At: 2, Duration: 10},
		{Kind: AgentCrash, Node: "n2", At: 5, Duration: 3},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("agent crashes on distinct nodes rejected: %v", err)
	}
	s = &Schedule{Events: []Event{
		{Kind: AgentCrash, Node: "n1", At: 2, Duration: 3},
		{Kind: AgentCrash, Node: "n1", At: 20, Duration: 3},
	}}
	if err := s.Validate(); err != nil {
		t.Fatalf("disjoint agent-crash windows rejected: %v", err)
	}
}

func TestRandomScheduleDrawsAgentCrashes(t *testing.T) {
	nodes := []string{"n1", "n2", "n3"}
	cfg := GenConfig{Horizon: 60, AgentCrashes: 2}
	a := RandomSchedule(13, nodes, cfg)
	b := RandomSchedule(13, nodes, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	n := 0
	for _, ev := range a.Events {
		if ev.Kind != AgentCrash {
			t.Fatalf("non-agent event %v drawn by an agent-only config", ev)
		}
		if ev.Duration <= 0 {
			t.Fatalf("agent crash drew non-positive downtime: %v", ev)
		}
		n++
	}
	if n != 2 {
		t.Fatalf("drew %d agent crashes, want 2", n)
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	// Agent crashes draw last: adding them must not perturb the
	// pre-existing draw sequence of a mixed plan.
	base := GenConfig{Crashes: 2, Degrades: 3, DriverCrashes: 1, MsgDrops: 1, LoadSpikes: 1}
	ext := base
	ext.AgentCrashes = 2
	p0 := RandomSchedule(17, nodes, base)
	p1 := RandomSchedule(17, nodes, ext)
	if len(p1.Events) <= len(p0.Events) {
		t.Fatalf("extended plan not longer: %d vs %d", len(p1.Events), len(p0.Events))
	}
	if !reflect.DeepEqual(p0.Events, p1.Events[:len(p0.Events)]) {
		t.Fatal("agent-crash draws perturbed the pre-existing fault trace")
	}
}

func TestValidateOverlapErrors(t *testing.T) {
	cases := []struct {
		a, b Event
		want string
	}{
		{Event{Kind: NodeCrash, Node: "n1", At: 1, Duration: 10}, Event{Kind: NodeCrash, Node: "n1", At: 5},
			"faults: overlapping crash windows on n1 (node-crash n1 at 1.00s (dur 10.00s, factor 0.00) / node-crash n1 at 5.00s (dur 0.00s, factor 0.00))"},
		{Event{Kind: SpotPreempt, Node: "n1", At: 1, Duration: 10}, Event{Kind: SpotPreempt, Node: "n1", At: 5, Duration: 10},
			"faults: overlapping preemption notices on n1 (spot-preempt n1 at 1.00s (dur 10.00s, factor 0.00) / spot-preempt n1 at 5.00s (dur 10.00s, factor 0.00))"},
		{Event{Kind: DriverCrash, At: 1, Duration: 10}, Event{Kind: DriverCrash, At: 5, Duration: 1},
			"faults: overlapping driver-crash windows (driver-crash  at 1.00s (dur 10.00s, factor 0.00) / driver-crash  at 5.00s (dur 1.00s, factor 0.00))"},
		{Event{Kind: MsgDrop, Node: "n1", At: 1, Duration: 10, Factor: 0.5}, Event{Kind: MsgDrop, Node: "n1", At: 5, Duration: 10, Factor: 0.5},
			`faults: overlapping msg-drop windows on scope "n1" (msg-drop n1 at 1.00s (dur 10.00s, factor 0.50) / msg-drop n1 at 5.00s (dur 10.00s, factor 0.50))`},
		{Event{Kind: LoadSpike, At: 1, Duration: 10, Factor: 2}, Event{Kind: LoadSpike, At: 5, Duration: 10, Factor: 2},
			"faults: overlapping load-spike windows (load-spike  at 1.00s (dur 10.00s, factor 2.00) / load-spike  at 5.00s (dur 10.00s, factor 2.00))"},
		{Event{Kind: AgentCrash, Node: "n1", At: 1}, Event{Kind: AgentCrash, Node: "n1", At: 5, Duration: 3},
			"faults: overlapping agent-crash windows on n1 (agent-crash n1 at 1.00s (dur 0.00s, factor 0.00) / agent-crash n1 at 5.00s (dur 3.00s, factor 0.00))"},
	}
	for _, c := range cases {
		s := &Schedule{Events: []Event{c.a, c.b}}
		if err := s.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: error %v, want %s", c.a.Kind, err, c.want)
		}
	}

	// Overlaps on two nodes: every call reports the pair that comes first
	// in event order.
	s := &Schedule{Events: []Event{
		{Kind: NodeCrash, Node: "n2", At: 1, Duration: 10},
		{Kind: NodeCrash, Node: "n1", At: 1, Duration: 10},
		{Kind: NodeCrash, Node: "n2", At: 5, Duration: 10},
		{Kind: NodeCrash, Node: "n1", At: 5, Duration: 10},
	}}
	first := s.Validate()
	if first == nil || !strings.Contains(first.Error(), "on n2 ") {
		t.Fatalf("error %v, want the n2 overlap", first)
	}
	for i := 0; i < 50; i++ {
		if err := s.Validate(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: error %v, first call %v", i, err, first)
		}
	}
}
