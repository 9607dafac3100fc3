package streaming

import (
	"fmt"
	"sort"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/tracing"
)

// NodeInfo is the static capability snapshot a placer sees — the
// left-hand (static) columns of the paper's Table I. Placers never touch
// live cluster state; the runtime re-invokes them with fresh exclusions
// when nodes die.
type NodeInfo struct {
	Name     string
	Cores    int
	FreqGHz  float64
	MemBytes int64
	NetBps   float64
	GPUs     int
}

// Capacity returns the node's aggregate compute rate in giga-cycles/sec.
func (n NodeInfo) Capacity() float64 { return float64(n.Cores) * n.FreqGHz }

// SnapshotNodes builds placer inputs from a cluster, in cluster order.
func SnapshotNodes(clu *cluster.Cluster) []NodeInfo {
	infos := make([]NodeInfo, 0, len(clu.Nodes))
	for _, n := range clu.Nodes {
		infos = append(infos, NodeInfo{
			Name:     n.Spec.Name,
			Cores:    n.Spec.Cores,
			FreqGHz:  n.Spec.FreqGHz,
			MemBytes: n.Spec.MemBytes,
			NetBps:   n.Spec.NetBandwidth,
			GPUs:     n.Spec.GPUs,
		})
	}
	return infos
}

// Placer decides where operators run. A placement is a node name per
// operator ID, "" for an unplaced operator. Place assigns every operator
// of a topology a node up front; Pick chooses a migration target for one
// operator, honoring the current placement and a set of excluded
// (doomed or degraded) nodes. Pick returns "" when no candidate exists.
type Placer interface {
	Name() string
	Place(t *Topology, nodes []NodeInfo) []string
	Pick(t *Topology, op *Operator, nodes []NodeInfo, current []string, exclude map[string]bool) string
}

// PlacerNames lists the valid -placer values, in documentation order.
var PlacerNames = []string{"default", "resource", "rupam"}

// NewPlacer builds a placer by name. db is the CharDB whose learned
// per-operator demand the rupam placer consults (it may be empty or nil —
// the placer falls back to closed-form demand); col records a placement
// Decision per operator and may be nil.
func NewPlacer(name string, db *core.CharDB, col *tracing.Collector) (Placer, error) {
	switch name {
	case "default":
		return &defaultPlacer{col: col}, nil
	case "resource":
		return &resourcePlacer{col: col}, nil
	case "rupam":
		return &rupamPlacer{db: db, col: col}, nil
	}
	return nil, fmt.Errorf("streaming: unknown placer %q (valid: %v)", name, PlacerNames)
}

// ---- default: locality round-robin -----------------------------------------

// defaultPlacer is the capability-blind baseline: operators land on nodes
// round-robin in cluster order, the streaming analogue of slot-based
// default scheduling — every node is assumed equal.
type defaultPlacer struct {
	col  *tracing.Collector
	next int
}

func (p *defaultPlacer) Name() string { return "default" }

func (p *defaultPlacer) Place(t *Topology, nodes []NodeInfo) []string {
	placement := make([]string, len(t.Ops))
	for _, id := range t.TopoOrder() {
		node := nodes[p.next%len(nodes)].Name
		p.next++
		placement[id] = node
		d := p.col.NewDecision("placer/default", node)
		d.Candidate(id, node, "", "round-robin slot")
		d.SetWinner(id, "round-robin", node, false)
		d.Commit()
	}
	return placement
}

func (p *defaultPlacer) Pick(t *Topology, op *Operator, nodes []NodeInfo, current []string, exclude map[string]bool) string {
	for range nodes {
		node := nodes[p.next%len(nodes)].Name
		p.next++
		if node != current[op.ID] && !exclude[node] {
			d := p.col.NewDecision("placer/default", node)
			d.Candidate(op.ID, node, "", "round-robin slot")
			d.SetWinner(op.ID, "round-robin", node, false)
			d.Commit()
			return node
		}
	}
	return ""
}

// ---- resource-aware: Storm-style greedy on static capability ---------------

// resourcePlacer reproduces the Storm resource-aware strategy: operators
// sorted by closed-form CPU demand, each greedily assigned to the node
// with the most residual aggregate capacity (Storm's generic
// resource-aware strategy favors the node with the most available
// resources). It sees node capability — but only the aggregate
// Gcycles/s: it is blind to per-core frequency (an operator's
// parallelism cap), NIC asymmetry and learned demand, which is exactly
// the gap the RUPAM placer closes.
type resourcePlacer struct {
	col *tracing.Collector
}

func (p *resourcePlacer) Name() string { return "resource" }

// byDemandDesc returns operator IDs sorted by descending closed-form
// steady CPU demand (sources demand 0: emission is arrival, not
// compute), ID ascending on ties — the deterministic best-fit-decreasing
// order.
func byDemandDesc(t *Topology) []int {
	demand := t.index().cpu
	ids := make([]int, 0, len(t.Ops))
	for _, o := range t.Ops {
		ids = append(ids, o.ID)
	}
	sort.Slice(ids, func(a, b int) bool {
		if demand[ids[a]] != demand[ids[b]] {
			return demand[ids[a]] > demand[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids
}

func (p *resourcePlacer) Place(t *Topology, nodes []NodeInfo) []string {
	demand := t.index().cpu
	assigned := make(map[string]float64, len(nodes))
	placement := make([]string, len(t.Ops))
	for _, id := range byDemandDesc(t) {
		placement[id] = p.mostResidual(id, demand[id], nodes, assigned, nil)
		assigned[placement[id]] += demand[id]
	}
	return placement
}

func (p *resourcePlacer) Pick(t *Topology, op *Operator, nodes []NodeInfo, current []string, exclude map[string]bool) string {
	demand := t.index().cpu
	assigned := make(map[string]float64, len(nodes))
	for id, node := range current {
		if node != "" && id != op.ID {
			assigned[node] += demand[id]
		}
	}
	ex := make(map[string]bool, len(exclude)+1)
	for n := range exclude {
		ex[n] = true
	}
	ex[current[op.ID]] = true
	return p.mostResidual(op.ID, demand[op.ID], nodes, assigned, ex)
}

// mostResidual picks the node with the most residual aggregate capacity —
// the greedy spread that keeps the biggest machines absorbing the hottest
// operators. Ties break on node order.
func (p *resourcePlacer) mostResidual(opID int, demand float64, nodes []NodeInfo, assigned map[string]float64, exclude map[string]bool) string {
	d := p.col.NewDecision("placer/resource", "")
	chosen, bestResidual := "", -1.0
	for _, n := range nodes {
		if exclude[n.Name] {
			d.Candidate(opID, n.Name, "excluded", "")
			continue
		}
		residual := n.Capacity() - assigned[n.Name]
		if d != nil {
			detail := fmt.Sprintf("residual %.1f Gcyc/s vs demand %.1f", residual, demand)
			if residual >= demand {
				d.Candidate(opID, n.Name, "", detail)
			} else {
				d.Candidate(opID, n.Name, "no-cpu-fit", detail)
			}
		}
		if residual > bestResidual {
			chosen, bestResidual = n.Name, residual
		}
	}
	heuristic := "most-residual static capacity"
	if bestResidual < demand {
		heuristic = "least-overloaded (nothing fits)"
	}
	if chosen == "" {
		return ""
	}
	if d != nil {
		d.Node = chosen
	}
	d.SetWinner(opID, heuristic, chosen, false)
	d.Commit()
	return chosen
}
