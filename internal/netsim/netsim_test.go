package netsim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"rupam/internal/simx"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func twoNodes(t *testing.T) (*simx.Engine, *Network) {
	t.Helper()
	eng := simx.NewEngine()
	n := New(eng)
	n.AddNode("a", 100, 100)
	n.AddNode("b", 100, 100)
	return eng, n
}

func TestSingleFlowTiming(t *testing.T) {
	eng, n := twoNodes(t)
	var done float64
	n.Start("a", "b", 500, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 5, 1e-9) {
		t.Fatalf("flow finished at %v, want 5", done)
	}
}

func TestEgressSharing(t *testing.T) {
	eng := simx.NewEngine()
	n := New(eng)
	n.AddNode("src", 100, 100)
	n.AddNode("d1", 1000, 1000)
	n.AddNode("d2", 1000, 1000)
	var t1, t2 float64
	n.Start("src", "d1", 100, func() { t1 = eng.Now() })
	n.Start("src", "d2", 100, func() { t2 = eng.Now() })
	eng.Run()
	// Both bottlenecked on src egress: 50 each → 2 s.
	if !almost(t1, 2, 1e-9) || !almost(t2, 2, 1e-9) {
		t.Fatalf("t1=%v t2=%v, want 2, 2", t1, t2)
	}
}

func TestIngressSharing(t *testing.T) {
	eng := simx.NewEngine()
	n := New(eng)
	n.AddNode("s1", 1000, 1000)
	n.AddNode("s2", 1000, 1000)
	n.AddNode("dst", 1000, 100)
	var t1, t2 float64
	n.Start("s1", "dst", 100, func() { t1 = eng.Now() })
	n.Start("s2", "dst", 100, func() { t2 = eng.Now() })
	eng.Run()
	if !almost(t1, 2, 1e-9) || !almost(t2, 2, 1e-9) {
		t.Fatalf("t1=%v t2=%v, want 2, 2", t1, t2)
	}
}

func TestMaxMinFairness(t *testing.T) {
	// Classic progressive-filling scenario: flows A→C and B→C contend at
	// C (cap 100); flow A→D is limited only by A's leftover egress.
	eng := simx.NewEngine()
	n := New(eng)
	n.AddNode("A", 150, 1000)
	n.AddNode("B", 1000, 1000)
	n.AddNode("C", 1000, 100)
	n.AddNode("D", 1000, 1000)
	fac := n.Start("A", "C", 1e9, nil)
	fbc := n.Start("B", "C", 1e9, nil)
	fad := n.Start("A", "D", 1e9, nil)
	n.Sync()
	// Max-min: A→C and B→C each get 50 at C. A→D gets A's remaining
	// egress: 150-50 = 100.
	if !almost(fac.Rate(), 50, 1e-6) || !almost(fbc.Rate(), 50, 1e-6) {
		t.Fatalf("C-bound rates: %v, %v; want 50, 50", fac.Rate(), fbc.Rate())
	}
	if !almost(fad.Rate(), 100, 1e-6) {
		t.Fatalf("A→D rate: %v, want 100", fad.Rate())
	}
}

func TestFlowCompletionFreesBandwidth(t *testing.T) {
	eng, n := twoNodes(t)
	var tShort, tLong float64
	n.Start("a", "b", 100, func() { tShort = eng.Now() })
	n.Start("a", "b", 300, func() { tLong = eng.Now() })
	eng.Run()
	// Shared at 50 until short finishes (t=2); long has 200 left at 100 → t=4.
	if !almost(tShort, 2, 1e-9) || !almost(tLong, 4, 1e-9) {
		t.Fatalf("short=%v long=%v", tShort, tLong)
	}
}

func TestCancelFlow(t *testing.T) {
	eng, n := twoNodes(t)
	var done float64
	f := n.Start("a", "b", 1000, nil)
	n.Start("a", "b", 200, func() { done = eng.Now() })
	eng.Schedule(1, func() {
		rem := n.Cancel(f)
		if !almost(rem, 950, 1e-6) {
			t.Errorf("cancel remaining = %v, want 950", rem)
		}
	})
	eng.Run()
	// Second flow: 50 by t=1, then 150 at rate 100 → t=2.5.
	if !almost(done, 2.5, 1e-6) {
		t.Fatalf("done = %v, want 2.5", done)
	}
}

func TestLoopbackFast(t *testing.T) {
	eng, n := twoNodes(t)
	var done float64
	n.Start("a", "a", 8e9, func() { done = eng.Now() })
	eng.Run()
	if !almost(done, 1, 1e-6) {
		t.Fatalf("loopback 8 GB took %v, want ~1 s", done)
	}
}

func TestZeroByteFlowAsync(t *testing.T) {
	eng, n := twoNodes(t)
	fired := false
	n.Start("a", "b", 0, func() { fired = true })
	if fired {
		t.Fatal("zero-byte flow fired synchronously")
	}
	eng.Run()
	if !fired {
		t.Fatal("zero-byte flow never completed")
	}
}

func TestIfaceAccounting(t *testing.T) {
	eng, n := twoNodes(t)
	n.Start("a", "b", 500, nil)
	eng.Run()
	n.Sync()
	a, b := n.Iface("a"), n.Iface("b")
	if !almost(a.TotalSent(), 500, 1e-6) || !almost(b.TotalReceived(), 500, 1e-6) {
		t.Fatalf("sent=%v received=%v", a.TotalSent(), b.TotalReceived())
	}
}

func TestUtilizationInstantaneous(t *testing.T) {
	eng, n := twoNodes(t)
	n.Start("a", "b", 1000, nil)
	n.Sync()
	if u := n.Iface("a").Utilization(); !almost(u, 1, 1e-9) {
		t.Fatalf("utilization = %v, want 1", u)
	}
	_ = eng
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for duplicate node")
		}
	}()
	n := New(simx.NewEngine())
	n.AddNode("x", 1, 1)
	n.AddNode("x", 1, 1)
}

func TestUnknownNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown source")
		}
	}()
	n := New(simx.NewEngine())
	n.AddNode("x", 1, 1)
	n.Start("nope", "x", 1, nil)
}

// Property: byte conservation — total bytes delivered equals the sum of
// flow sizes, for arbitrary flow matrices.
func TestQuickByteConservation(t *testing.T) {
	f := func(flows []uint16) bool {
		eng := simx.NewEngine()
		n := New(eng)
		names := []string{"n0", "n1", "n2", "n3"}
		for _, nm := range names {
			n.AddNode(nm, 50+float64(nm[1]-'0')*30, 60)
		}
		var want float64
		for i, b := range flows {
			src := names[i%4]
			dst := names[(i/4+1)%4]
			if src == dst {
				continue
			}
			bytes := float64(b%1000) + 1
			want += bytes
			n.Start(src, dst, bytes, nil)
		}
		eng.Run()
		n.Sync()
		var got float64
		for _, nm := range names {
			got += n.Iface(nm).TotalReceived()
		}
		return almost(got, want, 1e-3*(1+want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: allocated rates never exceed any interface capacity.
func TestQuickCapacityRespected(t *testing.T) {
	f := func(flows []uint8) bool {
		eng := simx.NewEngine()
		n := New(eng)
		names := []string{"a", "b", "c"}
		caps := []float64{40, 70, 100}
		for i, nm := range names {
			n.AddNode(nm, caps[i], caps[i])
		}
		for i := range flows {
			src := names[i%3]
			dst := names[(i+1)%3]
			n.Start(src, dst, float64(flows[i])+1, nil)
		}
		n.Sync()
		for i, nm := range names {
			ifc := n.Iface(nm)
			if ifc.EgressRate() > caps[i]+1e-6 || ifc.IngressRate() > caps[i]+1e-6 {
				return false
			}
		}
		eng.Run()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSetCapacityMidFlow(t *testing.T) {
	// A 1000-byte flow at 100 B/s would finish at t=10; halving the link at
	// t=5 leaves 500 bytes at 50 B/s, so it finishes at t=15.
	eng, n := twoNodes(t)
	var done float64
	n.Start("a", "b", 1000, func() { done = eng.Now() })
	eng.Schedule(5, func() { n.SetCapacity("a", 50, 50) })
	eng.Run()
	if !almost(done, 15, 1e-9) {
		t.Fatalf("flow finished at %v, want 15", done)
	}
}

func TestSetCapacityRestore(t *testing.T) {
	// Degrade to 25 B/s for 4 s then restore: 1000 bytes = 100 at t=0..4
	// (400 B), then 25 B/s would need 24 s; restoring at t=8 leaves 500
	// bytes at 100 B/s → done at 13.
	eng, n := twoNodes(t)
	var done float64
	n.Start("a", "b", 1000, func() { done = eng.Now() })
	eng.Schedule(4, func() { n.SetCapacity("b", 100, 25) })
	eng.Schedule(8, func() { n.SetCapacity("b", 100, 100) })
	eng.Run()
	if !almost(done, 13, 1e-9) {
		t.Fatalf("flow finished at %v, want 13", done)
	}
}

func TestSetCapacityUnknownNodePanics(t *testing.T) {
	_, n := twoNodes(t)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node accepted")
		}
	}()
	n.SetCapacity("ghost", 10, 10)
}

func TestSetCapacityNonPositivePanics(t *testing.T) {
	_, n := twoNodes(t)
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	n.SetCapacity("a", 0, 10)
}

// wave builds a network of uneven NICs carrying two long flows, then at
// t=1 starts a fetch wave of flows to one reader — under a hold when
// held is set. It returns the wave's flows and a log of completions.
func wave(held bool) (*simx.Engine, *Network, []*Flow, *[]string) {
	eng := simx.NewEngine()
	n := New(eng)
	caps := []float64{100, 250, 40, 1000, 75, 300}
	names := []string{"r", "s1", "s2", "s3", "s4", "s5"}
	for i, name := range names {
		n.AddNode(name, caps[i], caps[(i+2)%len(caps)])
	}
	log := &[]string{}
	done := func(tag string) func() {
		return func() { *log = append(*log, fmt.Sprintf("%s@%v", tag, eng.Now())) }
	}
	n.Start("s1", "s3", 900, done("bg1"))
	n.Start("s3", "r", 400, done("bg2"))
	var fs []*Flow
	eng.Schedule(1, func() {
		if held {
			n.Hold()
		}
		for i, src := range []string{"s1", "s2", "s3", "r", "s4", "s5", "s2"} {
			fs = append(fs, n.Start(src, "r", float64(100+37*i), done(fmt.Sprintf("f%d", i))))
		}
		if held {
			n.Release()
		}
	})
	eng.RunUntil(1)
	return eng, n, fs, log
}

func TestHoldReleaseMatchesPerFlowRerate(t *testing.T) {
	engA, a, fa, logA := wave(false)
	engB, b, fb, logB := wave(true)
	if len(fa) != len(fb) || len(fa) == 0 {
		t.Fatalf("wave sizes %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Rate() != fb[i].Rate() || fa[i].Remaining() != fb[i].Remaining() {
			t.Errorf("flow %d: rate %v / %v, remaining %v / %v",
				i, fa[i].Rate(), fb[i].Rate(), fa[i].Remaining(), fb[i].Remaining())
		}
	}
	engA.Run()
	engB.Run()
	if fmt.Sprint(*logA) != fmt.Sprint(*logB) {
		t.Errorf("completions differ:\n per-flow %v\n held     %v", *logA, *logB)
	}
	if len(*logA) != len(fa)+2 {
		t.Errorf("%d completions, want %d", len(*logA), len(fa)+2)
	}
	for _, name := range []string{"r", "s1", "s2", "s3", "s4", "s5"} {
		ia, ib := a.Iface(name), b.Iface(name)
		if ia.TotalSent() != ib.TotalSent() || ia.TotalReceived() != ib.TotalReceived() {
			t.Errorf("%s: sent %v / %v, received %v / %v",
				name, ia.TotalSent(), ib.TotalSent(), ia.TotalReceived(), ib.TotalReceived())
		}
	}
	if engA.Fired() != engB.Fired() {
		t.Errorf("events fired %d / %d", engA.Fired(), engB.Fired())
	}
}

// scheduled counts the engine's Schedule calls; every re-rate re-arms
// the completion timer with one.
func scheduled(eng *simx.Engine) uint64 {
	ps := eng.PoolStats()
	return ps.Gets + ps.News
}

func TestHeldStartDefersRerate(t *testing.T) {
	eng, n := twoNodes(t)
	n.Start("a", "b", 500, nil)
	before := scheduled(eng)
	n.Hold()
	g := n.Start("b", "a", 500, nil)
	h := n.Start("a", "b", 500, nil)
	if got := scheduled(eng); got != before || g.Rate() != 0 || h.Rate() != 0 {
		t.Fatalf("held starts re-rated: %d schedules (want %d), rates %v, %v",
			got, before, g.Rate(), h.Rate())
	}
	n.Release()
	if got := scheduled(eng); got != before+1 {
		t.Fatalf("Release scheduled %d timers, want 1", got-before)
	}
	if g.Rate() != 100 || h.Rate() != 50 {
		t.Fatalf("rates after Release %v, %v; want 100, 50", g.Rate(), h.Rate())
	}
}

func TestReleaseWithoutHeldStartDoesNotRerate(t *testing.T) {
	eng, n := twoNodes(t)
	f := n.Start("a", "b", 500, nil)
	before := scheduled(eng)
	n.Hold()
	n.Release()
	if got := scheduled(eng); got != before {
		t.Fatalf("empty hold re-armed the completion timer (%d schedules, want %d)", got, before)
	}
	// A held flow cancelled under the hold re-rates at once; Release
	// then has nothing left to rate.
	n.Hold()
	g := n.Start("b", "a", 500, nil)
	n.Cancel(g)
	before = scheduled(eng)
	n.Release()
	if got := scheduled(eng); got != before {
		t.Fatalf("Release after an immediate re-rate re-armed the timer")
	}
	if f.Rate() != 100 {
		t.Fatalf("rate %v, want 100", f.Rate())
	}
}

func TestHoldSpanningTimePanics(t *testing.T) {
	eng, n := twoNodes(t)
	n.Hold()
	eng.Schedule(1, func() {})
	eng.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a hold across virtual time")
		}
	}()
	n.Release()
}
