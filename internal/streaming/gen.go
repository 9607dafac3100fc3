package streaming

import (
	"fmt"

	"rupam/internal/stats"
)

// TopoConfig bounds the seeded topology generator. The zero value is
// filled in by withDefaults; all draws come from one stats.Rand in a
// fixed order, so a given (seed, config) pair always yields a
// byte-identical topology (see Topology.Fingerprintable).
type TopoConfig struct {
	// Sources is the number of source operators (default 2).
	Sources int
	// Layers is the number of intermediate operator layers between the
	// sources and the sink (default 3).
	Layers int
	// WidthMin/WidthMax bound the operators per intermediate layer
	// (defaults 2..3).
	WidthMin, WidthMax int
	// RateMin/RateMax bound per-source emission rates in records/sec
	// (defaults 2000..6000).
	RateMin, RateMax float64
	// SelMin/SelMax bound per-operator selectivity (defaults 0.4..1.3).
	SelMin, SelMax float64
	// CyclesMin/CyclesMax bound per-record compute cost in giga-cycles
	// (defaults 1e-4..8e-4 — i.e. 0.1–0.8 M cycles/record, so one
	// 3.2 GHz core sustains 4k–32k records/sec).
	CyclesMin, CyclesMax float64
	// ParMin/ParMax bound per-operator parallelism (defaults 1..4;
	// draws ParMin..ParMax).
	ParMin, ParMax int
}

// The generator's fixed bounds: every operator's serialized record size
// is drawn from bytesMin..bytesMax bytes and its state size, the
// migration payload, from stateMin..stateMax bytes.
const (
	bytesMin float64 = 200
	bytesMax float64 = 2000
	stateMin int64   = 8 << 20
	stateMax int64   = 256 << 20
)

func (c TopoConfig) withDefaults() TopoConfig {
	if c.Sources <= 0 {
		c.Sources = 2
	}
	if c.Layers <= 0 {
		c.Layers = 3
	}
	if c.WidthMin <= 0 {
		c.WidthMin = 2
	}
	if c.WidthMax < c.WidthMin {
		c.WidthMax = c.WidthMin + 1
	}
	if c.RateMin <= 0 {
		c.RateMin = 2000
	}
	if c.RateMax < c.RateMin {
		c.RateMax = 3 * c.RateMin
	}
	if c.SelMin <= 0 {
		c.SelMin = 0.4
	}
	if c.SelMax < c.SelMin {
		c.SelMax = 1.3
	}
	if c.CyclesMin <= 0 {
		c.CyclesMin = 1e-4
	}
	if c.CyclesMax < c.CyclesMin {
		c.CyclesMax = 8e-4
	}
	if c.ParMin <= 0 {
		c.ParMin = 1
	}
	if c.ParMax < c.ParMin {
		c.ParMax = c.ParMin + 3
	}
	return c
}

// GenTopology draws a layered operator DAG from the seed: a layer of
// sources, Layers intermediate layers whose operators each pick one or
// two upstreams from the previous layer, and a single sink that absorbs
// every dangling output. Draw order is append-only — new knobs must draw
// after existing ones so old seeds keep their topologies.
func GenTopology(seed uint64, cfg TopoConfig) *Topology {
	cfg = cfg.withDefaults()
	rng := stats.NewRand(seed ^ 0x5eedc0de)
	t := &Topology{Name: fmt.Sprintf("stream-%d", seed)}
	// hasOut records which operators feed an edge so far: the topology
	// has no index until it is complete and validated.
	var hasOut []bool
	add := func(name string, o Operator) *Operator {
		o.ID = len(t.Ops)
		o.Name = fmt.Sprintf("%s%d", name, o.ID)
		op := o
		t.Ops = append(t.Ops, &op)
		hasOut = append(hasOut, false)
		return &op
	}
	edge := func(from, to int) {
		t.Edges = append(t.Edges, Edge{From: from, To: to})
		hasOut[from] = true
	}

	// Layer 0: sources.
	prev := make([]int, 0, cfg.Sources)
	for i := 0; i < cfg.Sources; i++ {
		o := add("src", Operator{
			CyclesPerRecord: rng.Range(cfg.CyclesMin, cfg.CyclesMax) * 0.25,
			BytesPerRecord:  rng.Range(bytesMin, bytesMax),
			Parallelism:     cfg.ParMin + rng.Intn(cfg.ParMax-cfg.ParMin+1),
			StateBytes:      stateMin + int64(rng.Float64()*float64(stateMax-stateMin)),
			RateHz:          rng.Range(cfg.RateMin, cfg.RateMax),
		})
		prev = append(prev, o.ID)
	}

	// Intermediate layers: each operator takes 1–2 distinct upstreams
	// from the previous layer (fan-in); an upstream feeding several
	// operators is fan-out.
	for l := 0; l < cfg.Layers; l++ {
		width := cfg.WidthMin + rng.Intn(cfg.WidthMax-cfg.WidthMin+1)
		layer := make([]int, 0, width)
		for i := 0; i < width; i++ {
			o := add("op", Operator{
				CyclesPerRecord: rng.Range(cfg.CyclesMin, cfg.CyclesMax),
				BytesPerRecord:  rng.Range(bytesMin, bytesMax),
				Selectivity:     rng.Range(cfg.SelMin, cfg.SelMax),
				Parallelism:     cfg.ParMin + rng.Intn(cfg.ParMax-cfg.ParMin+1),
				StateBytes:      stateMin + int64(rng.Float64()*float64(stateMax-stateMin)),
			})
			fanin := 1 + rng.Intn(2)
			if fanin > len(prev) {
				fanin = len(prev)
			}
			first := rng.Intn(len(prev))
			edge(prev[first], o.ID)
			if fanin == 2 {
				second := rng.Intn(len(prev) - 1)
				if second >= first {
					second++
				}
				edge(prev[second], o.ID)
			}
			layer = append(layer, o.ID)
		}
		// Any previous-layer operator nobody picked up would dangle as
		// an accidental sink; wire it into a deterministic member of
		// the new layer instead.
		for _, up := range prev {
			if !hasOut[up] {
				edge(up, layer[up%len(layer)])
			}
		}
		prev = layer
	}

	// One sink absorbs the last layer.
	sink := add("sink", Operator{
		CyclesPerRecord: rng.Range(cfg.CyclesMin, cfg.CyclesMax) * 0.5,
		BytesPerRecord:  rng.Range(bytesMin, bytesMax),
		Selectivity:     1,
		Parallelism:     cfg.ParMin + rng.Intn(cfg.ParMax-cfg.ParMin+1),
		StateBytes:      stateMin + int64(rng.Float64()*float64(stateMax-stateMin)),
	})
	for _, up := range prev {
		edge(up, sink.ID)
	}

	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("streaming: generator produced an invalid topology: %v", err))
	}
	return t
}
