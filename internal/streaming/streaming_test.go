package streaming

import (
	"math"
	"testing"

	"rupam/internal/faults"
)

// shortCfg is a fast fault-free run used by most tests.
func shortCfg(seed uint64, placer string) Config {
	return Config{
		Seed:    seed,
		Placer:  placer,
		Horizon: 60,
		Warmup:  10,
	}
}

// TestFaultFreeRunDrainsClean is the satellite check: in a fault-free
// run the sink's intake equals the closed-form selectivity product along
// every path, records conserve per channel, and the topology drains.
func TestFaultFreeRunDrainsClean(t *testing.T) {
	res := Run(shortCfg(1, "rupam"))
	if !res.Drained {
		t.Fatalf("run did not drain; violations: %v", res.Violations)
	}
	if v := CheckInvariants(res); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}

	// Sources must never have throttled: emission == RateHz × Horizon.
	for _, id := range res.Topo.Sources() {
		want := res.Topo.Op(id).RateHz * res.Horizon
		got := res.SourceEmitted[id]
		if math.Abs(got-want) > 0.01*want {
			t.Fatalf("source %d throttled in a fault-free run: emitted %v, offered %v", id, got, want)
		}
	}

	// Sink intake equals the closed-form product of selectivities applied
	// to the actual emissions (exact, not rate-approximate).
	expect := res.Topo.PropagateEmitted(res.SourceEmitted)
	for _, o := range res.Ops {
		if len(res.Topo.Out(o.ID)) != 0 || len(res.Topo.In(o.ID)) == 0 {
			continue
		}
		if math.Abs(o.Consumed-expect[o.ID]) > relErr*expect[o.ID] {
			t.Fatalf("sink %d consumed %v, closed form implies %v", o.ID, o.Consumed, expect[o.ID])
		}
	}

	// Sustained throughput approaches the offered closed-form rate.
	if res.ThroughputHz < 0.9*res.OfferedHz {
		t.Fatalf("throughput %.1f Hz below 90%% of offered %.1f Hz in a fault-free run",
			res.ThroughputHz, res.OfferedHz)
	}
	if res.P99Ms <= 0 || res.P50Ms > res.P99Ms {
		t.Fatalf("implausible latency percentiles: p50=%v p99=%v", res.P50Ms, res.P99Ms)
	}
}

// TestRunBitIdentical pins run-level determinism: identical seed and
// config produce identical fingerprints, including under faults.
func TestRunBitIdentical(t *testing.T) {
	mk := func() Config {
		cfg := shortCfg(7, "rupam")
		cfg.Faults = faults.RandomSchedule(7, []string{"thor1", "hulk1"}, faults.GenConfig{
			Horizon:     50,
			CPUDegrades: 1,
			LoadSpikes:  1,
		})
		cfg.ForceMigrateAt = 25
		return cfg
	}
	a, b := Run(mk()), Run(mk())
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed, different outcomes: %x vs %x", a.Fingerprint(), b.Fingerprint())
	}
	c := Run(shortCfg(8, "rupam"))
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("different seeds produced identical fingerprints")
	}
}

// TestForcedMigrationExactlyOnce forces a migration mid-run and checks
// the exactly-once battery still holds.
func TestForcedMigrationExactlyOnce(t *testing.T) {
	for _, placer := range PlacerNames {
		cfg := shortCfg(3, placer)
		cfg.ForceMigrateAt = 20
		res := Run(cfg)
		if len(res.Migrations) == 0 {
			t.Fatalf("%s: no migration despite ForceMigrateAt", placer)
		}
		if v := CheckInvariants(res); len(v) != 0 {
			t.Fatalf("%s: violations after forced migration: %v", placer, v)
		}
	}
}

// TestBackpressureThrottlesSources overloads the topology (every node is
// slower than the offered load needs) and checks the credit chain: queues
// never exceed capacity and the sources themselves slowed down.
func TestBackpressureThrottlesSources(t *testing.T) {
	cfg := shortCfg(5, "rupam")
	cfg.Topo = TopoConfig{
		RateMin: 20000, RateMax: 30000, // beyond what low-parallelism ops sustain
		CyclesMin: 2.5e-4, CyclesMax: 5e-4,
		SelMin: 0.9, SelMax: 1.1,
	}
	res := Run(cfg)
	if v := CheckInvariants(res); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	throttled := false
	for _, id := range res.Topo.Sources() {
		offered := res.Topo.Op(id).RateHz * res.Horizon
		if res.SourceEmitted[id] < 0.9*offered {
			throttled = true
		}
	}
	if !throttled {
		t.Fatal("overloaded run never backpressured the sources")
	}
	for _, c := range res.Chans {
		if c.MaxQueue > c.Capacity*(1+relErr)+recEps {
			t.Fatalf("chan %d->%d overflowed: %v > %v", c.From, c.To, c.MaxQueue, c.Capacity)
		}
	}
}

// TestSpotPreemptionMigratesAndConserves drives the spot-notice path: the
// doomed node's operators evacuate gracefully and nothing is lost.
func TestSpotPreemptionMigratesAndConserves(t *testing.T) {
	cfg := shortCfg(11, "rupam")
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.SpotPreempt, Node: "thor1", At: 20, Duration: 5},
	}}
	res := Run(cfg)
	if v := CheckInvariants(res); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	for _, o := range res.Ops {
		if o.Node == "thor1" {
			t.Fatalf("operator %d still on the preempted node", o.ID)
		}
	}
}

// TestLoadSpikeRaisesOfferedLoad checks the LoadSpike hook: with a spike
// window the sources emit more than their base offer.
func TestLoadSpikeRaisesOfferedLoad(t *testing.T) {
	cfg := shortCfg(13, "rupam")
	cfg.Topo = TopoConfig{RateMin: 500, RateMax: 800} // leave headroom for the spike
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.LoadSpike, At: 20, Duration: 10, Factor: 2.0},
	}}
	res := Run(cfg)
	if res.LoadSpikes != 1 {
		t.Fatalf("injector applied %d load spikes, want 1", res.LoadSpikes)
	}
	if v := CheckInvariants(res); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	for _, id := range res.Topo.Sources() {
		base := res.Topo.Op(id).RateHz * res.Horizon
		// 10 s at ×2 adds one extra offered-load × 10 s.
		want := base + res.Topo.Op(id).RateHz*10
		if math.Abs(res.SourceEmitted[id]-want) > 0.05*want {
			t.Fatalf("source %d emitted %v under a ×2/10s spike, want ≈%v (base %v)",
				id, res.SourceEmitted[id], want, base)
		}
	}
}

// TestNodeCrashEmergencyFailover kills a host mid-run with no warning:
// operators must fail over and exactly-once must still hold.
func TestNodeCrashEmergencyFailover(t *testing.T) {
	cfg := shortCfg(17, "rupam")
	cfg.Faults = &faults.Schedule{Events: []faults.Event{
		{Kind: faults.NodeCrash, Node: "thor2", At: 25}, // permanent
	}}
	res := Run(cfg)
	if v := CheckInvariants(res); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	for _, o := range res.Ops {
		if o.Node == "thor2" {
			t.Fatalf("operator %d still homed on the crashed node", o.ID)
		}
	}
}
