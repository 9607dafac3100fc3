package streaming

import (
	"slices"
	"strings"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/simx"
)

func hydraNodes() []NodeInfo {
	return SnapshotNodes(cluster.NewHydra(cluster.New(simx.NewEngine())))
}

// serialHot builds a topology whose middle operator is hot (≈3 Gcyc/s)
// but serial (Parallelism 1): only a fast-core node can sustain it, which
// is exactly the heterogeneity signal aggregate-capacity placement misses.
func serialHot() *Topology {
	return &Topology{
		Name: "serial-hot",
		Ops: []*Operator{
			{ID: 0, Name: "src", CyclesPerRecord: 1e-5, BytesPerRecord: 100, Parallelism: 1, RateHz: 1000},
			{ID: 1, Name: "hot", CyclesPerRecord: 3e-3, BytesPerRecord: 100, Selectivity: 1, Parallelism: 1, StateBytes: 1 << 20},
			{ID: 2, Name: "sink", CyclesPerRecord: 1e-5, BytesPerRecord: 100, Selectivity: 1, Parallelism: 1},
		},
		Edges: []Edge{{0, 1}, {1, 2}},
	}
}

func TestNewPlacerUnknown(t *testing.T) {
	if _, err := NewPlacer("storm", nil, nil); err == nil {
		t.Fatal("unknown placer accepted")
	}
	for _, name := range PlacerNames {
		p, err := NewPlacer(name, nil, nil)
		if err != nil || p.Name() != name {
			t.Fatalf("placer %q: %v / %v", name, p, err)
		}
	}
}

func TestDefaultPlacerRoundRobin(t *testing.T) {
	nodes := hydraNodes()
	p, _ := NewPlacer("default", nil, nil)
	placement := p.Place(serialHot(), nodes)
	// Blind round-robin in cluster order, whatever the demand.
	for i, id := range []int{0, 1, 2} {
		if placement[id] != nodes[i].Name {
			t.Fatalf("op %d on %s, want %s", id, placement[id], nodes[i].Name)
		}
	}
}

// TestRupamHonorsPerCoreFrequency is the heterogeneity centrepiece: the
// serial hot operator needs 3 Gcyc/s on a single core. Only thor nodes
// (3.2 GHz) can attain that; hulk's 32 aggregate Gcyc/s arrive in 1.0 GHz
// slices and stack's in 0.9 GHz slices. The rupam placer must choose a
// thor; the Storm-style placer, seeing only aggregate capacity, does not.
func TestRupamHonorsPerCoreFrequency(t *testing.T) {
	nodes := hydraNodes()
	topo := serialHot()

	rupam, _ := NewPlacer("rupam", nil, nil)
	placement := rupam.Place(topo, nodes)
	if !strings.HasPrefix(placement[1], "thor") {
		t.Fatalf("rupam placed the serial hot operator on %s, want a thor", placement[1])
	}

	resource, _ := NewPlacer("resource", nil, nil)
	placement = resource.Place(topo, nodes)
	if strings.HasPrefix(placement[1], "thor") {
		t.Fatalf("resource-aware best-fit unexpectedly matched rupam (%s); the baseline gap vanished", placement[1])
	}
}

func TestPickExcludesCurrentAndDoomed(t *testing.T) {
	nodes := hydraNodes()
	topo := serialHot()
	for _, name := range PlacerNames {
		p, _ := NewPlacer(name, nil, nil)
		current := p.Place(topo, nodes)
		if len(current) != len(topo.Ops) || slices.Contains(current, "") {
			t.Fatalf("%s: Place left operators unplaced: %q", name, current)
		}
		cur := current[1]
		exclude := map[string]bool{}
		for _, n := range nodes {
			// Doom every node except the last two, whatever they are.
			if n.Name != nodes[len(nodes)-1].Name && n.Name != nodes[len(nodes)-2].Name {
				exclude[n.Name] = true
			}
		}
		got := p.Pick(topo, topo.Op(1), nodes, current, exclude)
		if got == "" {
			t.Fatalf("%s: Pick found no target", name)
		}
		if got == cur || exclude[got] {
			t.Fatalf("%s: Pick chose %s (current %s, excluded %v)", name, got, cur, exclude[got])
		}
	}
}

// TestPickWithUnplacedNeighbours moves an operator whose neighbours have
// no node yet: "" entries are unplaced and charge nothing.
func TestPickWithUnplacedNeighbours(t *testing.T) {
	nodes := hydraNodes()
	topo := serialHot()
	for _, name := range PlacerNames {
		p, _ := NewPlacer(name, nil, nil)
		current := []string{"", nodes[0].Name, ""}
		got := p.Pick(topo, topo.Op(1), nodes, current, nil)
		if got == "" || got == nodes[0].Name {
			t.Fatalf("%s: Pick chose %q away from %s", name, got, nodes[0].Name)
		}
	}
}
