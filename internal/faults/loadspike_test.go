package faults

import (
	"reflect"
	"testing"
)

func TestLoadSpikeValidate(t *testing.T) {
	bad := []Event{
		{Kind: LoadSpike, At: 1, Duration: 5, Factor: 2, Node: "a"}, // cluster-wide only
		{Kind: LoadSpike, At: 1, Duration: 5, Factor: 0.5},          // factor < 1
		{Kind: LoadSpike, At: 1, Factor: 2},                         // no duration
	}
	for _, e := range bad {
		if e.Validate() == nil {
			t.Errorf("event %v validated", e)
		}
	}
	good := Event{Kind: LoadSpike, At: 1, Duration: 5, Factor: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spike rejected: %v", err)
	}

	overlap := &Schedule{Events: []Event{
		{Kind: LoadSpike, At: 1, Duration: 10, Factor: 2},
		{Kind: LoadSpike, At: 5, Duration: 10, Factor: 3},
	}}
	if overlap.Validate() == nil {
		t.Fatal("overlapping spike windows validated")
	}
	disjoint := &Schedule{Events: []Event{
		{Kind: LoadSpike, At: 1, Duration: 4, Factor: 2},
		{Kind: LoadSpike, At: 10, Duration: 4, Factor: 3},
	}}
	if err := disjoint.Validate(); err != nil {
		t.Fatalf("disjoint spike windows rejected: %v", err)
	}
}

func TestRandomScheduleDrawsLoadSpikes(t *testing.T) {
	nodes := []string{"n1", "n2"}
	cfg := GenConfig{Horizon: 300, LoadSpikes: 3}
	a := RandomSchedule(7, nodes, cfg)
	if !reflect.DeepEqual(a, RandomSchedule(7, nodes, cfg)) {
		t.Fatal("same seed produced different spike schedules")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	n := 0
	for _, ev := range a.Events {
		if ev.Kind != LoadSpike {
			t.Fatalf("non-spike event %v drawn by a spike-only config", ev)
		}
		n++
		if ev.Node != "" {
			t.Fatalf("spike scoped to a node: %v", ev)
		}
		if ev.Factor < 1.5 || ev.Factor > 3 {
			t.Fatalf("spike factor %v outside the default range", ev.Factor)
		}
		if ev.At+ev.Duration > cfg.Horizon {
			t.Fatalf("spike window %v runs past the horizon", ev)
		}
	}
	if n != 3 {
		t.Fatalf("drew %d spikes, want 3", n)
	}

	// Spike draws come last: adding them must not perturb the trace a
	// pre-existing seed draws for every other fault kind.
	base := GenConfig{Crashes: 2, Degrades: 2, TaskFlakes: 1, SpotPreempts: 1, MsgDrops: 1}
	ext := base
	ext.LoadSpikes = 2
	p0 := RandomSchedule(11, nodes, base)
	p1 := RandomSchedule(11, nodes, ext)
	if len(p1.Events) != len(p0.Events)+2 {
		t.Fatalf("extended plan has %d events, want %d", len(p1.Events), len(p0.Events)+2)
	}
	if !reflect.DeepEqual(p0.Events, p1.Events[:len(p0.Events)]) {
		t.Fatal("spike draws perturbed the pre-existing fault trace")
	}
}

func TestInjectorAppliesLoadSpike(t *testing.T) {
	eng, clu, execs := twoNode(t)
	inj := NewInjector(eng, clu, execs)
	var mults []float64
	inj.OnLoadSpike = func(m float64) { mults = append(mults, m) }
	inj.Install(&Schedule{Events: []Event{
		{Kind: LoadSpike, At: 1, Duration: 2, Factor: 2.5},
		{Kind: LoadSpike, At: 5, Duration: 1, Factor: 3},
	}})
	eng.Run()
	// Each window raises the multiplier on open and restores 1 on close.
	want := []float64{2.5, 1, 3, 1}
	if !reflect.DeepEqual(mults, want) {
		t.Fatalf("multiplier sequence %v, want %v", mults, want)
	}
	if inj.LoadSpikes != 2 {
		t.Fatalf("LoadSpikes counter = %d, want 2", inj.LoadSpikes)
	}
}

func TestInjectorLoadSpikeWithoutHook(t *testing.T) {
	eng, clu, execs := twoNode(t)
	inj := NewInjector(eng, clu, execs)
	// No OnLoadSpike hook: the spike is a no-op, not a panic, and the
	// empty Node must not trip the unknown-node check.
	inj.Install(&Schedule{Events: []Event{
		{Kind: LoadSpike, At: 1, Duration: 2, Factor: 2},
	}})
	eng.Run()
	if inj.LoadSpikes != 0 {
		t.Fatalf("hook-less spike counted: %d", inj.LoadSpikes)
	}
}
