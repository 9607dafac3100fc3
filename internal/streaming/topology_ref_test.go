package streaming

import (
	"math"
	"slices"
	"sort"
	"testing"

	"rupam/internal/stats"
)

// The linear-scan graph queries below are the reference for the
// topology index: each rescans Ops and Edges on every call and shares
// no code with Validate. The index must reproduce them bit for bit.

func refOp(t *Topology, id int) *Operator {
	for _, o := range t.Ops {
		if o.ID == id {
			return o
		}
	}
	return nil
}

func refIn(t *Topology, id int) []int {
	var in []int
	for _, e := range t.Edges {
		if e.To == id {
			in = append(in, e.From)
		}
	}
	return in
}

func refOut(t *Topology, id int) []int {
	var out []int
	for _, e := range t.Edges {
		if e.From == id {
			out = append(out, e.To)
		}
	}
	return out
}

func refTopoOrder(t *Topology) []int {
	indeg := make(map[int]int, len(t.Ops))
	for _, o := range t.Ops {
		indeg[o.ID] = 0
	}
	for _, e := range t.Edges {
		indeg[e.To]++
	}
	var frontier []int
	for _, o := range t.Ops {
		if indeg[o.ID] == 0 {
			frontier = append(frontier, o.ID)
		}
	}
	sort.Ints(frontier)
	var order []int
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		order = append(order, id)
		for _, to := range refOut(t, id) {
			indeg[to]--
			if indeg[to] == 0 {
				i := sort.SearchInts(frontier, to)
				frontier = append(frontier, 0)
				copy(frontier[i+1:], frontier[i:])
				frontier[i] = to
			}
		}
	}
	return order
}

func refSteadyRates(t *Topology) map[int]float64 {
	in := make(map[int]float64, len(t.Ops))
	out := make(map[int]float64, len(t.Ops))
	for _, id := range refTopoOrder(t) {
		o := refOp(t, id)
		if len(refIn(t, id)) == 0 {
			out[id] = o.RateHz
			in[id] = 0
			continue
		}
		sum := 0.0
		for _, up := range refIn(t, id) {
			sum += out[up]
		}
		in[id] = sum
		out[id] = sum * o.Selectivity
	}
	return in
}

func refSteadyOutRates(t *Topology) map[int]float64 {
	in := refSteadyRates(t)
	out := make(map[int]float64, len(t.Ops))
	for _, o := range t.Ops {
		if len(refIn(t, o.ID)) == 0 {
			out[o.ID] = o.RateHz
		} else {
			out[o.ID] = in[o.ID] * o.Selectivity
		}
	}
	return out
}

func refPropagateEmitted(t *Topology, emitted map[int]float64) map[int]float64 {
	in := make(map[int]float64, len(t.Ops))
	out := make(map[int]float64, len(t.Ops))
	for _, id := range refTopoOrder(t) {
		o := refOp(t, id)
		if len(refIn(t, id)) == 0 {
			out[id] = emitted[id]
			continue
		}
		sum := 0.0
		for _, up := range refIn(t, id) {
			sum += out[up]
		}
		in[id] = sum
		out[id] = sum * o.Selectivity
	}
	return in
}

// experimentsTopo is the streaming sweep's topology envelope
// (experiments.streamingTopo), which this package cannot import.
func experimentsTopo() TopoConfig {
	return TopoConfig{
		Sources: 3, Layers: 4, WidthMin: 3, WidthMax: 4,
		RateMin: 4000, RateMax: 7000,
		CyclesMin: 2e-4, CyclesMax: 4.5e-4,
		SelMin: 0.6, SelMax: 1.05,
		ParMin: 12, ParMax: 24,
	}
}

// TestIndexMatchesLinearScans requires the index to answer every graph
// query exactly as the linear scans do, rates equal to the last bit, on
// the hand-built topologies and 250 generated seeds of each envelope.
func TestIndexMatchesLinearScans(t *testing.T) {
	topos := []*Topology{diamond(), serialHot()}
	for seed := uint64(1); seed <= 250; seed++ {
		topos = append(topos, GenTopology(seed, TopoConfig{}), GenTopology(seed, experimentsTopo()))
	}
	rng := stats.NewRand(7)
	for _, topo := range topos {
		ref := &Topology{Name: topo.Name, Ops: topo.Ops, Edges: topo.Edges}
		checkIndex(t, topo, ref, rng)
	}
}

func checkIndex(t *testing.T, topo, ref *Topology, rng *stats.Rand) {
	t.Helper()
	sameBits := func(what string, got []float64, want map[int]float64) {
		t.Helper()
		if len(got) != len(ref.Ops) {
			t.Fatalf("%s %s: %d entries for %d operators", ref.Name, what, len(got), len(ref.Ops))
		}
		for id := range got {
			if math.Float64bits(got[id]) != math.Float64bits(want[id]) {
				t.Fatalf("%s %s of op %d: %v, reference %v", ref.Name, what, id, got[id], want[id])
			}
		}
	}
	if got, want := topo.TopoOrder(), refTopoOrder(ref); !slices.Equal(got, want) {
		t.Fatalf("%s: TopoOrder %v, reference %v", ref.Name, got, want)
	}
	var sources, sinks []int
	for _, o := range ref.Ops {
		if topo.Op(o.ID) != refOp(ref, o.ID) {
			t.Fatalf("%s: Op(%d) differs", ref.Name, o.ID)
		}
		in, out := refIn(ref, o.ID), refOut(ref, o.ID)
		if !slices.Equal(topo.In(o.ID), in) || !slices.Equal(topo.Out(o.ID), out) {
			t.Fatalf("%s op %d: In %v Out %v, reference %v %v",
				ref.Name, o.ID, topo.In(o.ID), topo.Out(o.ID), in, out)
		}
		if len(in) == 0 {
			sources = append(sources, o.ID)
		}
		if len(out) == 0 {
			sinks = append(sinks, o.ID)
		}
	}
	if !slices.Equal(topo.Sources(), sources) || !slices.Equal(topo.Sinks(), sinks) {
		t.Fatalf("%s: Sources %v Sinks %v, reference %v %v",
			ref.Name, topo.Sources(), topo.Sinks(), sources, sinks)
	}

	inRates := refSteadyRates(ref)
	sameBits("SteadyRates", topo.SteadyRates(), inRates)
	sameBits("SteadyOutRates", topo.SteadyOutRates(), refSteadyOutRates(ref))
	demand := make(map[int]float64, len(ref.Ops))
	for _, o := range ref.Ops {
		demand[o.ID] = inRates[o.ID] * o.CyclesPerRecord
	}
	sameBits("CPU demand", topo.index().cpu, demand)

	// Emissions as a faulted run leaves them: some sources throttled,
	// some silent (absent from the map).
	emitted := make(map[int]float64)
	for _, id := range sources {
		if rng.Float64() < 0.8 {
			emitted[id] = ref.Ops[id].RateHz * rng.Range(10, 120)
		}
	}
	sameBits("PropagateEmitted", topo.PropagateEmitted(emitted), refPropagateEmitted(ref, emitted))
}
