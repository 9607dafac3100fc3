// Package streaming adds the second execution model beside finite batch
// DAGs: long-running operator topologies (source → operator DAG → sink,
// with fan-in and fan-out) executed as micro-batches on the existing
// virtual clock. Inter-operator channels are bounded and carried as
// long-lived netsim flows, so streaming traffic contends with everything
// else on the NICs; credit-based backpressure propagates source-ward
// until the sources themselves throttle. Operator *placement* — not task
// dispatch — is the scheduling decision, behind the Placer interface,
// and operators migrate (drain → state handoff → resume, exactly-once)
// when their host degrades, receives a spot-preemption notice, or a load
// spike outgrows it.
package streaming

import (
	"fmt"
	"sort"
)

// Operator is one vertex of a streaming topology. Sources (no in-edges)
// emit records at RateHz; every other operator consumes records from its
// in-edges and emits Selectivity output records per input record onto
// each of its out-edges (broadcast semantics, so per-path closed forms
// compose multiplicatively).
type Operator struct {
	ID   int
	Name string

	// CyclesPerRecord is the compute demand per record in giga-cycles,
	// so one core at FreqGHz f processes f/CyclesPerRecord records/sec.
	CyclesPerRecord float64
	// BytesPerRecord is the serialized record size on the operator's
	// outgoing edges.
	BytesPerRecord float64
	// Selectivity is output records per input record (1 = pass-through,
	// <1 filter, >1 flat-map). Ignored for sources, whose emission is
	// RateHz.
	Selectivity float64
	// Parallelism caps how many cores the operator instance can use at
	// once on its host node.
	Parallelism int
	// StateBytes is the operator's state size — the migration payload
	// and its memory demand.
	StateBytes int64
	// RateHz is the source emission rate in records/sec; zero for
	// non-sources.
	RateHz float64
}

// Edge connects operator From's output to operator To's input.
type Edge struct {
	From, To int
}

// Topology is an operator DAG whose operator IDs are dense: Ops[i].ID ==
// i, so per-operator state can live in slices indexed by ID. Build one by
// hand or with GenTopology; Validate before running it.
type Topology struct {
	Name  string
	Ops   []*Operator
	Edges []Edge
}

// Op returns the operator with the given ID, or nil.
func (t *Topology) Op(id int) *Operator {
	for _, o := range t.Ops {
		if o.ID == id {
			return o
		}
	}
	return nil
}

// In returns the IDs of operators with an edge into id, in edge order.
func (t *Topology) In(id int) []int {
	var in []int
	for _, e := range t.Edges {
		if e.To == id {
			in = append(in, e.From)
		}
	}
	return in
}

// Out returns the IDs of operators id has an edge to, in edge order.
func (t *Topology) Out(id int) []int {
	var out []int
	for _, e := range t.Edges {
		if e.From == id {
			out = append(out, e.To)
		}
	}
	return out
}

// Sources returns the IDs of operators with no in-edges, ascending.
func (t *Topology) Sources() []int {
	var s []int
	for _, o := range t.Ops {
		if len(t.In(o.ID)) == 0 {
			s = append(s, o.ID)
		}
	}
	sort.Ints(s)
	return s
}

// Sinks returns the IDs of operators with no out-edges, ascending.
func (t *Topology) Sinks() []int {
	var s []int
	for _, o := range t.Ops {
		if len(t.Out(o.ID)) == 0 {
			s = append(s, o.ID)
		}
	}
	sort.Ints(s)
	return s
}

// TopoOrder returns operator IDs in a deterministic topological order
// (Kahn's algorithm with an ascending-ID frontier). It panics on a cycle;
// call Validate first on untrusted topologies.
func (t *Topology) TopoOrder() []int {
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
		for _, to := range t.Out(id) {
			indeg[to]--
			if indeg[to] == 0 {
				// Insert keeping the frontier sorted, so equal-depth
				// operators always drain in ID order.
				i := sort.SearchInts(frontier, to)
				frontier = append(frontier, 0)
				copy(frontier[i+1:], frontier[i:])
				frontier[i] = to
			}
		}
	}
	if len(order) != len(t.Ops) {
		panic(fmt.Sprintf("streaming: topology %q has a cycle", t.Name))
	}
	return order
}

// Validate reports the first structural problem with the topology, or nil.
func (t *Topology) Validate() error {
	if len(t.Ops) == 0 {
		return fmt.Errorf("streaming: topology %q has no operators", t.Name)
	}
	seen := make(map[int]bool, len(t.Ops))
	for i, o := range t.Ops {
		switch {
		case o.ID != i:
			return fmt.Errorf("streaming: operator ID %d at position %d (IDs must be dense 0..N-1)", o.ID, i)
		case o.Name == "":
			return fmt.Errorf("streaming: operator %d without a name", o.ID)
		case o.CyclesPerRecord <= 0:
			return fmt.Errorf("streaming: operator %s: non-positive cycles/record", o.Name)
		case o.BytesPerRecord <= 0:
			return fmt.Errorf("streaming: operator %s: non-positive bytes/record", o.Name)
		case o.Parallelism <= 0:
			return fmt.Errorf("streaming: operator %s: non-positive parallelism", o.Name)
		case o.StateBytes < 0:
			return fmt.Errorf("streaming: operator %s: negative state size", o.Name)
		}
		seen[o.ID] = true
	}
	for _, e := range t.Edges {
		if !seen[e.From] || !seen[e.To] {
			return fmt.Errorf("streaming: edge %d→%d names an unknown operator", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("streaming: self-edge on operator %d", e.From)
		}
	}
	dup := make(map[Edge]bool, len(t.Edges))
	for _, e := range t.Edges {
		if dup[e] {
			return fmt.Errorf("streaming: duplicate edge %d→%d", e.From, e.To)
		}
		dup[e] = true
	}
	// Acyclicity via Kahn without panicking.
	indeg := make(map[int]int, len(t.Ops))
	for _, e := range t.Edges {
		indeg[e.To]++
	}
	removed := 0
	var frontier []int
	for _, o := range t.Ops {
		if indeg[o.ID] == 0 {
			frontier = append(frontier, o.ID)
		}
	}
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		removed++
		for _, to := range t.Out(id) {
			indeg[to]--
			if indeg[to] == 0 {
				frontier = append(frontier, to)
			}
		}
	}
	if removed != len(t.Ops) {
		return fmt.Errorf("streaming: topology %q has a cycle", t.Name)
	}
	for _, o := range t.Ops {
		src := len(t.In(o.ID)) == 0
		if src && o.RateHz <= 0 {
			return fmt.Errorf("streaming: source %s without a positive rate", o.Name)
		}
		if !src && o.RateHz != 0 {
			return fmt.Errorf("streaming: non-source %s with a source rate", o.Name)
		}
		if !src && o.Selectivity <= 0 {
			return fmt.Errorf("streaming: operator %s: non-positive selectivity", o.Name)
		}
		if src && len(t.Out(o.ID)) == 0 {
			return fmt.Errorf("streaming: source %s is also a sink", o.Name)
		}
	}
	return nil
}

// SteadyRates returns the closed-form steady-state *input* rate of every
// operator (records/sec), propagating source rates through selectivities
// along every path: in(op) = Σ_upstream out(upstream), with out(src) =
// RateHz and out(op) = in(op) × Selectivity. Sources report input rate 0.
func (t *Topology) SteadyRates() map[int]float64 {
	in := make(map[int]float64, len(t.Ops))
	out := make(map[int]float64, len(t.Ops))
	for _, id := range t.TopoOrder() {
		o := t.Op(id)
		if len(t.In(id)) == 0 {
			out[id] = o.RateHz
			in[id] = 0
			continue
		}
		sum := 0.0
		for _, up := range t.In(id) {
			sum += out[up]
		}
		in[id] = sum
		out[id] = sum * o.Selectivity
	}
	return in
}

// SteadyOutRates is SteadyRates for output rates: the records/sec each
// operator pushes onto *each* of its out-edges in steady state.
func (t *Topology) SteadyOutRates() map[int]float64 {
	in := t.SteadyRates()
	out := make(map[int]float64, len(t.Ops))
	for _, o := range t.Ops {
		if len(t.In(o.ID)) == 0 {
			out[o.ID] = o.RateHz
		} else {
			out[o.ID] = in[o.ID] * o.Selectivity
		}
	}
	return out
}

// PropagateEmitted propagates actual source emission counts through the
// DAG's selectivities, returning how many records each operator must have
// consumed in a fully drained run: in(op) = Σ_upstream out(upstream),
// out(op) = in(op) × Selectivity, out(src) = emitted[src]. This is the
// closed form the exactly-once invariant compares against.
func (t *Topology) PropagateEmitted(emitted map[int]float64) map[int]float64 {
	in := make(map[int]float64, len(t.Ops))
	out := make(map[int]float64, len(t.Ops))
	for _, id := range t.TopoOrder() {
		o := t.Op(id)
		if len(t.In(id)) == 0 {
			out[id] = emitted[id]
			continue
		}
		sum := 0.0
		for _, up := range t.In(id) {
			sum += out[up]
		}
		in[id] = sum
		out[id] = sum * o.Selectivity
	}
	return in
}

// Fingerprintable returns a deterministic byte serialization of the
// topology, used by the generation-determinism test and the run
// fingerprint. Two identical topologies serialize identically.
func (t *Topology) Fingerprintable() string {
	s := fmt.Sprintf("topology %q ops=%d edges=%d\n", t.Name, len(t.Ops), len(t.Edges))
	ids := make([]int, 0, len(t.Ops))
	for _, o := range t.Ops {
		ids = append(ids, o.ID)
	}
	sort.Ints(ids)
	for _, id := range ids {
		o := t.Op(id)
		s += fmt.Sprintf("op %d %s cyc=%.9g bytes=%.9g sel=%.9g par=%d state=%d rate=%.9g\n",
			o.ID, o.Name, o.CyclesPerRecord, o.BytesPerRecord, o.Selectivity,
			o.Parallelism, o.StateBytes, o.RateHz)
	}
	edges := make([]Edge, len(t.Edges))
	copy(edges, t.Edges)
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].From != edges[b].From {
			return edges[a].From < edges[b].From
		}
		return edges[a].To < edges[b].To
	})
	for _, e := range edges {
		s += fmt.Sprintf("edge %d→%d\n", e.From, e.To)
	}
	return s
}
