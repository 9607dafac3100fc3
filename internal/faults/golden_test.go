package faults_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"rupam/internal/chaos"
	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/stats"
	"rupam/internal/tenant"
)

// goldenPlanSeeds is the number of seeds each generator config is
// digested over.
const goldenPlanSeeds = 400

// goldenPlanGens are the generator configs the soaks, experiments and
// benchmark draw their plans from.
func goldenPlanGens() []struct {
	name string
	gen  faults.GenConfig
} {
	recovery := chaos.DefaultGen()
	recovery.DriverCrashes = 1
	benchFed := chaos.FederationGen()
	benchFed.Crashes, benchFed.Degrades, benchFed.HeartbeatLosses = 0, 0, 0
	benchFed.CPUDegrades, benchFed.MemPressures, benchFed.TaskFlakes = 0, 0, 0
	benchFed.DriverCrashes = 0
	return []struct {
		name string
		gen  faults.GenConfig
	}{
		{"default", chaos.DefaultGen()},
		{"tenancy", chaos.TenancyGen()},
		{"federation", chaos.FederationGen()},
		{"streaming", chaos.StreamingGen()},
		{"recovery", recovery},
		{"federation-churn", faults.GenConfig{Horizon: 60, AgentCrashes: 2}},
		{"bench-federation", benchFed},
	}
}

// TestGoldenFaultPlans pins the plans RandomSchedule and SpotSchedule draw
// for every generator config in use, so a change to the generator that
// moves any seed's plan — and with it every soak fingerprint downstream —
// shows up here first, naming the config.
func TestGoldenFaultPlans(t *testing.T) {
	nodes := cluster.NewHydra(cluster.New(simx.NewEngine())).NodeNames()
	want := map[string]string{
		"default":          "564694d40391d767",
		"tenancy":          "9947f2c47ef0060f",
		"federation":       "26a7b70daa904d96",
		"streaming":        "75002953036ff013",
		"recovery":         "6e75eaee396b8bf2",
		"federation-churn": "bc7e3b6ed55dc874",
		"bench-federation": "e16bb0efef8c6f31",
		"spot":             "95c940bb3818da1e",
	}
	got := map[string]string{}
	for _, g := range goldenPlanGens() {
		h := fnv.New64a()
		for seed := uint64(0); seed < goldenPlanSeeds; seed++ {
			hashPlan(h, seed, faults.RandomSchedule(seed, nodes, g.gen))
		}
		got[g.name] = fmt.Sprintf("%016x", h.Sum64())
	}
	spot := tenant.DefaultSpotNodes()
	h := fnv.New64a()
	for seed := uint64(0); seed < 200; seed++ {
		hashPlan(h, seed, faults.SpotSchedule(seed, spot, tenant.SpotHazards(spot), tenant.PreemptGen()))
	}
	got["spot"] = fmt.Sprintf("%016x", h.Sum64())
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s plans digest %s, want %s", name, got[name], w)
		}
	}
}

// hashPlan folds one seed's plan into h: the seed, the event count, and
// every field of every event in plan order.
func hashPlan(h hash.Hash64, seed uint64, s *faults.Schedule) {
	var b []byte
	b = binary.LittleEndian.AppendUint64(b, seed)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(s.Events)))
	for _, e := range s.Events {
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Kind))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(e.Node)))
		b = append(b, e.Node...)
		for _, x := range []float64{e.At, e.Duration, e.Factor, e.Delay} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	h.Write(b)
}

// goldenVerdictEvents is the size of the seeded Validate corpus.
const goldenVerdictEvents = 20000

// TestGoldenValidateVerdicts pins the verdict and error text of
// Event.Validate and of two-event Schedule.Validate over a seeded corpus.
// The corpus draws kinds one past either end of the enum, empty and named
// nodes, and field values on and around every rule's bounds, NaN and ±Inf
// included; in half of the pairs the second event copies the first at
// another time, so the overlap rules fire. It also checks that the corpus
// accepts and rejects an event of every kind and reaches every overlap
// scope.
func TestGoldenValidateVerdicts(t *testing.T) {
	rng := stats.NewRand(35)
	pick := func(vals []float64) float64 {
		if i := rng.Intn(len(vals) + 1); i < len(vals) {
			return vals[i]
		}
		return rng.Range(0, 20)
	}
	inf := math.Inf(1)
	nodes := []string{"", "n1", "n2"}
	ats := []float64{0, 1, 5, 12, -1, math.NaN(), inf}
	durs := []float64{0, 0, 3, 10, -2, math.NaN(), inf}
	factors := []float64{0, 0.3, 1, 1.5, 3, -0.1, 1.2, math.NaN(), -inf}
	delays := []float64{0, 0, 0.2, -0.1, math.NaN()}
	draw := func() faults.Event {
		return faults.Event{
			Kind:     faults.Kind(rng.Intn(int(faults.AgentRestart)+3) - 1),
			Node:     nodes[rng.Intn(len(nodes))],
			At:       pick(ats),
			Duration: pick(durs),
			Factor:   pick(factors),
			Delay:    pick(delays),
		}
	}
	text := func(err error) string {
		if err == nil {
			return "ok\n"
		}
		return err.Error() + "\n"
	}
	accepted := map[faults.Kind]bool{}
	rejected := map[faults.Kind]bool{}
	overlaps := map[faults.Kind]bool{}
	h := fnv.New64a()
	for i := 0; i < goldenVerdictEvents; i++ {
		a, b := draw(), draw()
		if rng.Float64() < 0.5 {
			b = a
			b.At = pick(ats)
		}
		for _, e := range []faults.Event{a, b} {
			err := e.Validate()
			h.Write([]byte(text(err)))
			if err == nil {
				accepted[e.Kind] = true
			} else {
				rejected[e.Kind] = true
			}
		}
		err := (&faults.Schedule{Events: []faults.Event{a, b}}).Validate()
		h.Write([]byte(text(err)))
		if err != nil && a.Validate() == nil && b.Validate() == nil {
			overlaps[a.Kind] = true
		}
	}
	for k := faults.NodeCrash; k <= faults.AgentRestart; k++ {
		if !accepted[k] || !rejected[k] {
			t.Errorf("corpus misses %s: accepted %v, rejected %v", k, accepted[k], rejected[k])
		}
	}
	for _, k := range []faults.Kind{faults.NodeCrash, faults.DriverCrash, faults.SpotPreempt,
		faults.MsgDrop, faults.MsgDup, faults.MsgDelay, faults.MsgReorder, faults.LoadSpike, faults.AgentCrash} {
		if !overlaps[k] {
			t.Errorf("corpus never overlaps two %s windows", k)
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "b6f66461463c2b90"; got != want {
		t.Errorf("verdict digest %s, want %s", got, want)
	}
}
