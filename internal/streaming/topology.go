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
	"slices"
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
// hand or with GenTopology; Validate before running it, and again after
// changing Ops or Edges.
type Topology struct {
	Name  string
	Ops   []*Operator
	Edges []Edge

	idx *topoIndex // built by Validate
}

// topoIndex is everything the rest of the package reads about the graph,
// by operator ID. Validate builds it; nothing else derives it.
type topoIndex struct {
	in, out        [][]int // neighbour IDs, in edge order
	order          []int   // Kahn's order with an ascending-ID frontier
	sources, sinks []int   // ascending
	inRate         []float64
	outRate        []float64 // per out-edge
	cpu            []float64 // steady CPU demand, Gcycles/s
}

// index returns the topology's index, validating it on first use. It
// panics on an invalid topology.
func (t *Topology) index() *topoIndex {
	if t.idx == nil {
		if err := t.Validate(); err != nil {
			panic(err.Error())
		}
	}
	return t.idx
}

// The accessors below return the index's own slices: callers must not
// modify them.

// Op returns the operator with the given ID, or nil.
func (t *Topology) Op(id int) *Operator {
	t.index()
	if id < 0 || id >= len(t.Ops) {
		return nil
	}
	return t.Ops[id]
}

// In returns the IDs of operators with an edge into id, in edge order.
func (t *Topology) In(id int) []int { return t.index().in[id] }

// Out returns the IDs of operators id has an edge to, in edge order.
func (t *Topology) Out(id int) []int { return t.index().out[id] }

// Sources returns the IDs of operators with no in-edges, ascending.
func (t *Topology) Sources() []int { return t.index().sources }

// Sinks returns the IDs of operators with no out-edges, ascending.
func (t *Topology) Sinks() []int { return t.index().sinks }

// TopoOrder returns operator IDs in a deterministic topological order
// (Kahn's algorithm with an ascending-ID frontier).
func (t *Topology) TopoOrder() []int { return t.index().order }

// SteadyRates returns the closed-form steady-state *input* rate of every
// operator (records/sec) by ID, propagating source rates through
// selectivities along every path: in(op) = Σ_upstream out(upstream), with
// out(src) = RateHz and out(op) = in(op) × Selectivity. Sources report
// input rate 0.
func (t *Topology) SteadyRates() []float64 { return t.index().inRate }

// SteadyOutRates is SteadyRates for output rates: the records/sec each
// operator pushes onto *each* of its out-edges in steady state.
func (t *Topology) SteadyOutRates() []float64 { return t.index().outRate }

// PropagateEmitted propagates actual source emission counts through the
// DAG's selectivities, returning by ID how many records each operator
// must have consumed in a fully drained run (0 for sources), by the same
// recurrence as SteadyRates with out(src) = emitted[src]. This is the
// closed form the exactly-once invariant compares against.
func (t *Topology) PropagateEmitted(emitted map[int]float64) []float64 {
	in, _ := t.index().propagate(t.Ops, func(id int) float64 { return emitted[id] })
	return in
}

// propagate pushes each source's output, srcOut(id), through the DAG in
// topological order: in(op) is the sum of its upstreams' outputs in edge
// order and out(op) = in(op) × Selectivity. Sources read input 0.
func (x *topoIndex) propagate(ops []*Operator, srcOut func(id int) float64) (in, out []float64) {
	in, out = make([]float64, len(ops)), make([]float64, len(ops))
	for _, id := range x.order {
		if len(x.in[id]) == 0 {
			out[id] = srcOut(id)
			continue
		}
		sum := 0.0
		for _, up := range x.in[id] {
			sum += out[up]
		}
		in[id], out[id] = sum, sum*ops[id].Selectivity
	}
	return in, out
}

// Validate reports the first structural problem with the topology, or nil,
// and on success builds the index every accessor reads.
func (t *Topology) Validate() error {
	t.idx = nil
	n := len(t.Ops)
	if n == 0 {
		return fmt.Errorf("streaming: topology %q has no operators", t.Name)
	}
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
	}
	for _, e := range t.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("streaming: edge %d→%d names an unknown operator", e.From, e.To)
		}
		if e.From == e.To {
			return fmt.Errorf("streaming: self-edge on operator %d", e.From)
		}
	}
	x := &topoIndex{in: make([][]int, n), out: make([][]int, n)}
	for _, e := range t.Edges {
		if slices.Contains(x.out[e.From], e.To) {
			return fmt.Errorf("streaming: duplicate edge %d→%d", e.From, e.To)
		}
		x.out[e.From] = append(x.out[e.From], e.To)
		x.in[e.To] = append(x.in[e.To], e.From)
	}

	// Kahn's algorithm; a cycle leaves operators out of the order.
	indeg := make([]int, n)
	for id := range indeg {
		if indeg[id] = len(x.in[id]); indeg[id] == 0 {
			x.sources = append(x.sources, id)
		}
		if len(x.out[id]) == 0 {
			x.sinks = append(x.sinks, id)
		}
	}
	frontier := slices.Clone(x.sources)
	x.order = make([]int, 0, n)
	for len(frontier) > 0 {
		id := frontier[0]
		frontier = frontier[1:]
		x.order = append(x.order, id)
		for _, to := range x.out[id] {
			if indeg[to]--; indeg[to] == 0 {
				// Insert keeping the frontier sorted, so equal-depth
				// operators always drain in ID order.
				i, _ := slices.BinarySearch(frontier, to)
				frontier = slices.Insert(frontier, i, to)
			}
		}
	}
	if len(x.order) != n {
		return fmt.Errorf("streaming: topology %q has a cycle", t.Name)
	}

	for _, o := range t.Ops {
		src := len(x.in[o.ID]) == 0
		if src && o.RateHz <= 0 {
			return fmt.Errorf("streaming: source %s without a positive rate", o.Name)
		}
		if !src && o.RateHz != 0 {
			return fmt.Errorf("streaming: non-source %s with a source rate", o.Name)
		}
		if !src && o.Selectivity <= 0 {
			return fmt.Errorf("streaming: operator %s: non-positive selectivity", o.Name)
		}
		if src && len(x.out[o.ID]) == 0 {
			return fmt.Errorf("streaming: source %s is also a sink", o.Name)
		}
	}

	x.inRate, x.outRate = x.propagate(t.Ops, func(id int) float64 { return t.Ops[id].RateHz })
	x.cpu = make([]float64, n)
	for id, o := range t.Ops {
		x.cpu[id] = x.inRate[id] * o.CyclesPerRecord
	}
	t.idx = x
	return nil
}

// Fingerprintable returns a deterministic byte serialization of the
// topology, used by the generation-determinism test and the run
// fingerprint. Two identical topologies serialize identically.
func (t *Topology) Fingerprintable() string {
	s := fmt.Sprintf("topology %q ops=%d edges=%d\n", t.Name, len(t.Ops), len(t.Edges))
	for _, o := range t.Ops {
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
