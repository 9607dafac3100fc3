package streaming

import (
	"math"
	"testing"
)

// diamond builds src → a,b → sink by hand: the closed forms are checkable
// on paper.
func diamond() *Topology {
	return &Topology{
		Name: "diamond",
		Ops: []*Operator{
			{ID: 0, Name: "src", CyclesPerRecord: 1e-4, BytesPerRecord: 500, Parallelism: 1, RateHz: 1000},
			{ID: 1, Name: "a", CyclesPerRecord: 2e-4, BytesPerRecord: 400, Selectivity: 0.5, Parallelism: 2},
			{ID: 2, Name: "b", CyclesPerRecord: 3e-4, BytesPerRecord: 300, Selectivity: 2.0, Parallelism: 2},
			{ID: 3, Name: "sink", CyclesPerRecord: 1e-4, BytesPerRecord: 100, Selectivity: 1, Parallelism: 1},
		},
		Edges: []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
}

func TestDiamondValidates(t *testing.T) {
	if err := diamond().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSteadyRatesClosedForm(t *testing.T) {
	d := diamond()
	in := d.SteadyRates()
	// src broadcasts 1000 Hz onto both edges; a halves, b doubles.
	if in[1] != 1000 || in[2] != 1000 {
		t.Fatalf("fan-out input rates: got a=%v b=%v, want 1000 each", in[1], in[2])
	}
	if want := 1000*0.5 + 1000*2.0; in[3] != want {
		t.Fatalf("sink input rate: got %v, want %v", in[3], want)
	}
	out := d.SteadyOutRates()
	if out[0] != 1000 || out[1] != 500 || out[2] != 2000 {
		t.Fatalf("out rates: got %v/%v/%v, want 1000/500/2000", out[0], out[1], out[2])
	}
}

func TestPropagateEmittedMatchesSteadyRates(t *testing.T) {
	d := diamond()
	// Emitting exactly one second of the steady rate must reproduce the
	// steady input rates.
	got := d.PropagateEmitted(map[int]float64{0: 1000})
	in := d.SteadyRates()
	for _, id := range []int{1, 2, 3} {
		if math.Abs(got[id]-in[id]) > 1e-9 {
			t.Fatalf("op %d: propagate %v != steady %v", id, got[id], in[id])
		}
	}
}

func TestTopoOrderDeterministicAndValid(t *testing.T) {
	d := diamond()
	order := d.TopoOrder()
	pos := make(map[int]int, len(order))
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range d.Edges {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %d→%d violates topological order %v", e.From, e.To, order)
		}
	}
	for i := 0; i < 5; i++ {
		again := d.TopoOrder()
		for j := range order {
			if again[j] != order[j] {
				t.Fatalf("TopoOrder not deterministic: %v vs %v", order, again)
			}
		}
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Topology)
		want string
	}{
		{"cycle", func(d *Topology) { d.Edges = append(d.Edges, Edge{3, 0}) },
			`streaming: topology "diamond" has a cycle`},
		{"self-edge", func(d *Topology) { d.Edges = append(d.Edges, Edge{1, 1}) },
			"streaming: self-edge on operator 1"},
		{"dup-edge", func(d *Topology) { d.Edges = append(d.Edges, Edge{0, 1}) },
			"streaming: duplicate edge 0→1"},
		{"unknown-op", func(d *Topology) { d.Edges = append(d.Edges, Edge{0, 99}) },
			"streaming: edge 0→99 names an unknown operator"},
		{"dup-id", func(d *Topology) {
			d.Ops = append(d.Ops, &Operator{ID: 0, Name: "x", CyclesPerRecord: 1, BytesPerRecord: 1, Selectivity: 1, Parallelism: 1})
		}, "streaming: operator ID 0 at position 4 (IDs must be dense 0..N-1)"},
		// IDs must be dense and in order (Ops[i].ID == i): the runtime
		// indexes per-operator state by ID.
		{"ids-out-of-order", func(d *Topology) { d.Ops[1].ID, d.Ops[2].ID = 2, 1 },
			"streaming: operator ID 2 at position 1 (IDs must be dense 0..N-1)"},
		{"sparse-ids", func(d *Topology) {
			d.Ops[3].ID = 9
			d.Edges = []Edge{{0, 1}, {0, 2}, {1, 9}, {2, 9}}
		}, "streaming: operator ID 9 at position 3 (IDs must be dense 0..N-1)"},
		{"source-no-rate", func(d *Topology) { d.Ops[0].RateHz = 0 },
			"streaming: source src without a positive rate"},
		{"non-source-rate", func(d *Topology) { d.Ops[1].RateHz = 5 },
			"streaming: non-source a with a source rate"},
		{"bad-selectivity", func(d *Topology) { d.Ops[1].Selectivity = 0 },
			"streaming: operator a: non-positive selectivity"},
		{"bad-parallelism", func(d *Topology) { d.Ops[2].Parallelism = 0 },
			"streaming: operator b: non-positive parallelism"},
		{"no-ops", func(d *Topology) { d.Ops, d.Edges = nil, nil },
			`streaming: topology "diamond" has no operators`},
		{"no-name", func(d *Topology) { d.Ops[1].Name = "" },
			"streaming: operator 1 without a name"},
		{"bad-cycles", func(d *Topology) { d.Ops[1].CyclesPerRecord = 0 },
			"streaming: operator a: non-positive cycles/record"},
		{"bad-bytes", func(d *Topology) { d.Ops[1].BytesPerRecord = 0 },
			"streaming: operator a: non-positive bytes/record"},
		{"negative-state", func(d *Topology) { d.Ops[1].StateBytes = -1 },
			"streaming: operator a: negative state size"},
		{"source-is-sink", func(d *Topology) {
			d.Ops = append(d.Ops, &Operator{ID: 4, Name: "lone", CyclesPerRecord: 1, BytesPerRecord: 1, Parallelism: 1, RateHz: 1})
		}, "streaming: source lone is also a sink"},
	}
	for _, c := range cases {
		d := diamond()
		c.mut(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid topology", c.name)
		} else if err.Error() != c.want {
			t.Errorf("%s: Validate said %q, want %q", c.name, err, c.want)
		}
	}
}

// TestGenTopologyDeterministic pins the generator's contract: the same
// seed yields a byte-identical topology, different seeds differ.
func TestGenTopologyDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a := GenTopology(seed, TopoConfig{})
		b := GenTopology(seed, TopoConfig{})
		if a.Fingerprintable() != b.Fingerprintable() {
			t.Fatalf("seed %d: two generations differ:\n%s\nvs\n%s",
				seed, a.Fingerprintable(), b.Fingerprintable())
		}
	}
	if GenTopology(1, TopoConfig{}).Fingerprintable() == GenTopology(2, TopoConfig{}).Fingerprintable() {
		t.Fatal("seeds 1 and 2 generated identical topologies")
	}
}

func TestGenTopologyStructure(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		topo := GenTopology(seed, TopoConfig{})
		if err := topo.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := len(topo.Sources()); got != 2 {
			t.Fatalf("seed %d: %d sources, want 2", seed, got)
		}
		if got := len(topo.Sinks()); got != 1 {
			t.Fatalf("seed %d: %d sinks, want 1", seed, got)
		}
		// Steady rates are finite and positive everywhere downstream.
		for id, rate := range topo.SteadyRates() {
			if len(topo.In(id)) > 0 && (rate <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate)) {
				t.Fatalf("seed %d: op %d steady rate %v", seed, id, rate)
			}
		}
	}
}
