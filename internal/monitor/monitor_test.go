package monitor

import (
	"math"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/simx"
)

func newClu(eng *simx.Engine) *cluster.Cluster {
	clu := cluster.New(eng)
	for _, name := range []string{"a", "b", "c"} {
		clu.AddNode(cluster.NodeSpec{
			Name: name, Class: "t", Cores: 4, FreqGHz: 2,
			MemBytes: 8 * cluster.GB, NetBandwidth: cluster.GbE(1),
			DiskReadBW: cluster.MBps(100), DiskWriteBW: cluster.MBps(100),
			GPUs: 1, GPURateGHz: 10,
		})
	}
	return clu
}

func TestCollectStaticFields(t *testing.T) {
	eng := simx.NewEngine()
	clu := newClu(eng)
	m := New(eng, clu, 1)
	if nm := m.Collect(clu.Node("a")); nm.CPUFreq != 2 {
		t.Fatalf("CPUFreq = %v, want 2", nm.CPUFreq)
	}
}

func TestHeartbeatsStaggeredAndPeriodic(t *testing.T) {
	eng := simx.NewEngine()
	clu := newClu(eng)
	m := New(eng, clu, 1)
	var times []float64
	var names []string
	m.OnHeartbeat = func(node string, nm *NodeMetrics) {
		times = append(times, eng.Now())
		names = append(names, node)
	}
	m.Start()
	eng.RunUntil(2.9)
	// Offsets 0, 1/3, 2/3; each node beats at offset, offset+1, offset+2
	// within 2.9 s → 9 heartbeats.
	if len(times) != 9 {
		t.Fatalf("heartbeats = %d, want 9", len(times))
	}
	if m.Heartbeats != 9 {
		t.Fatalf("counter = %d", m.Heartbeats)
	}
	// Staggering: the first three beats are at distinct times.
	if times[0] == times[1] || times[1] == times[2] {
		t.Fatalf("heartbeats not staggered: %v", times[:3])
	}
	if m.Latest("a") == nil || m.Latest("b") == nil {
		t.Fatal("latest reports missing")
	}
}

func TestStopHaltsHeartbeats(t *testing.T) {
	eng := simx.NewEngine()
	clu := newClu(eng)
	m := New(eng, clu, 1)
	m.Start()
	eng.RunUntil(1.5)
	got := m.Heartbeats
	m.Stop()
	eng.Run()
	if m.Heartbeats != got {
		t.Fatalf("heartbeats after stop: %d → %d", got, m.Heartbeats)
	}
}

func TestDefaultInterval(t *testing.T) {
	m := New(simx.NewEngine(), newClu(simx.NewEngine()), 0)
	if m.Interval() != 1 {
		t.Fatalf("default interval = %v", m.Interval())
	}
}

func TestDropSuppressesCollection(t *testing.T) {
	// With Drop returning true for node "b", no heartbeat for b is
	// collected or delivered, while a and c report normally; the ticker
	// itself keeps running so b resumes once Drop clears.
	eng := simx.NewEngine()
	clu := newClu(eng)
	m := New(eng, clu, 1)
	dropping := true
	m.Drop = func(node string) bool { return dropping && node == "b" }
	perNode := map[string]int{}
	m.OnHeartbeat = func(node string, _ *NodeMetrics) { perNode[node]++ }
	m.Start()
	eng.Schedule(5.5, func() { dropping = false })
	eng.RunUntil(10.5)
	m.Stop()
	if perNode["b"] == 0 {
		t.Fatal("b never resumed after Drop cleared")
	}
	if perNode["b"] >= perNode["a"] {
		t.Fatalf("b reported %d times, a %d — suppression had no effect", perNode["b"], perNode["a"])
	}
	if m.Latest("b") == nil {
		t.Fatal("no metrics for b after resuming")
	}
}

func TestNeverDroppingEqualsNilDrop(t *testing.T) {
	run := func(drop func(string) bool) int {
		eng := simx.NewEngine()
		clu := newClu(eng)
		m := New(eng, clu, 1)
		m.Drop = drop
		beats := 0
		m.OnHeartbeat = func(string, *NodeMetrics) { beats++ }
		m.Start()
		eng.RunUntil(3.5)
		m.Stop()
		return beats
	}
	nilBeats := run(nil)
	falseBeats := run(func(string) bool { return false })
	if nilBeats == 0 || nilBeats != falseBeats {
		t.Fatalf("nil Drop gave %d beats, never-dropping gave %d", nilBeats, falseBeats)
	}
}

// TestLongRunHoldsOneTimerPerNode runs the Hydra monitor for six
// virtual hours: the monitor must keep at most one pending heartbeat
// timer per node, not one handle per heartbeat ever armed.
func TestLongRunHoldsOneTimerPerNode(t *testing.T) {
	eng := simx.NewEngine()
	clu := cluster.NewHydra(cluster.New(eng))
	m := New(eng, clu, 1)
	m.Start()
	const horizon = 6*3600 - 0.5
	eng.RunUntil(horizon)

	want := 0
	for i := range clu.Nodes {
		offset := float64(i) / float64(len(clu.Nodes))
		want += int(math.Floor(horizon-offset)) + 1
	}
	if m.Heartbeats != want {
		t.Fatalf("heartbeats = %d, want %d", m.Heartbeats, want)
	}
	if len(m.timers) > len(clu.Nodes) {
		t.Fatalf("monitor holds %d timers for %d nodes", len(m.timers), len(clu.Nodes))
	}
	m.Stop()
	eng.Run()
	if m.Heartbeats != want {
		t.Fatalf("heartbeats after stop: %d → %d", want, m.Heartbeats)
	}
}
