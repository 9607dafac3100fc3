package streaming

import (
	"fmt"

	"rupam/internal/core"
	"rupam/internal/tracing"
)

// rupamPlacer extends RUPAM's demand-vector matching from tasks to
// operators: each operator carries a demand vector — CPU Gcycles/s,
// network bytes/s in and out, state bytes — learned from CharDB evidence
// when the operator has run before (the streaming runtime feeds observed
// demand back under a per-operator TaskKey) and derived from the
// topology's closed form otherwise. Nodes are scored by the tightest
// headroom dimension, with two heterogeneity terms the Storm-style
// placer cannot see:
//
//   - attainable rate honors the per-core frequency × parallelism cap —
//     a 2-way operator gets 6.4 Gcyc/s on a 3.2 GHz thor but only
//     2.0 Gcyc/s on a 1.0 GHz hulk, whatever the aggregate capacities;
//   - edges to already-placed neighbors charge both NICs unless the
//     neighbor is colocated (loopback is free), so chatty subgraphs pull
//     together and wide fan-ins land on 10 GbE nodes.
type rupamPlacer struct {
	db  *core.CharDB
	col *tracing.Collector
}

func (p *rupamPlacer) Name() string { return "rupam" }

// demandVec is one operator's resource demand in steady state.
type demandVec struct {
	cpu     float64 // Gcycles/s
	in, out float64 // bytes/s
	state   int64
	learned bool
}

// StreamKey is the CharDB key for one operator of one topology. The
// runtime records observed demand under it; the placer looks it up.
func StreamKey(topo string, op *Operator) core.TaskKey {
	return core.TaskKey{Signature: "stream/" + topo + "/" + op.Name, Partition: op.ID}
}

// demand builds the operator's demand vector: CharDB evidence when the
// operator has history (ComputeTime carries Gcycles/s, ShuffleRead/Write
// carry bytes/s under the streaming encoding — see Runtime.feedCharDB),
// closed-form rates otherwise.
func (p *rupamPlacer) demand(t *Topology, o *Operator) demandVec {
	x := t.index()
	v := demandVec{cpu: x.cpu[o.ID], state: o.StateBytes}
	for _, up := range x.in[o.ID] {
		v.in += x.outRate[up] * t.Ops[up].BytesPerRecord
	}
	v.out = x.outRate[o.ID] * o.BytesPerRecord * float64(len(x.out[o.ID]))
	if p.db != nil {
		if rec := p.db.Lookup(StreamKey(t.Name, o)); rec != nil && rec.Runs > 0 {
			v.cpu = rec.ComputeTime
			v.in = rec.ShuffleRead
			v.out = rec.ShuffleWrite
			if rec.PeakMemory > 0 {
				v.state = rec.PeakMemory
			}
			v.learned = true
		}
	}
	return v
}

// load tracks per-node demand already assigned during a placement round.
type load struct {
	cpu      float64
	net      float64 // busier-direction NIC load, bytes/s
	stateUse int64
}

func (p *rupamPlacer) Place(t *Topology, nodes []NodeInfo) []string {
	assigned := make(map[string]*load, len(nodes))
	for _, n := range nodes {
		assigned[n.Name] = &load{}
	}
	placement := make([]string, len(t.Ops))
	for _, id := range byDemandDesc(t) {
		o := t.Ops[id]
		v := p.demand(t, o)
		node := p.score(t, o, v, nodes, placement, assigned, nil)
		placement[id] = node
		p.charge(t, o, v, node, placement, assigned)
	}
	return placement
}

func (p *rupamPlacer) Pick(t *Topology, op *Operator, nodes []NodeInfo, current []string, exclude map[string]bool) string {
	assigned := make(map[string]*load, len(nodes))
	for _, n := range nodes {
		assigned[n.Name] = &load{}
	}
	for _, other := range t.TopoOrder() {
		if node := current[other]; node != "" && other != op.ID {
			o := t.Ops[other]
			p.charge(t, o, p.demand(t, o), node, current, assigned)
		}
	}
	ex := make(map[string]bool, len(exclude)+1)
	for n := range exclude {
		ex[n] = true
	}
	ex[current[op.ID]] = true
	// Scoring never reads the operator's own entry in current: self-edges
	// are rejected, so it is nobody's neighbour.
	return p.score(t, op, p.demand(t, op), nodes, current, assigned, ex)
}

// crossBytes returns the bytes/s the operator would exchange with each
// already-placed neighbor if hosted on node: zero for colocated
// neighbors (loopback), the edge rate otherwise.
func crossBytes(t *Topology, o *Operator, node string, placed []string) float64 {
	x := t.index()
	var bytes float64
	for _, up := range x.in[o.ID] {
		if peer := placed[up]; peer != "" && peer != node {
			bytes += x.outRate[up] * t.Ops[up].BytesPerRecord
		}
	}
	for _, down := range x.out[o.ID] {
		if peer := placed[down]; peer != "" && peer != node {
			bytes += x.outRate[o.ID] * o.BytesPerRecord
		}
	}
	return bytes
}

// score returns the best node for the operator, recording a placement
// Decision with the per-node verdicts.
func (p *rupamPlacer) score(t *Topology, o *Operator, v demandVec, nodes []NodeInfo, placed []string, assigned map[string]*load, exclude map[string]bool) string {
	d := p.col.NewDecision("placer/rupam", "")
	if d != nil {
		evidence := "closed-form demand"
		if v.learned {
			evidence = "CharDB-learned demand"
		}
		d.Note("%s: cpu %.2f Gcyc/s, net in %.0f out %.0f B/s, state %d B",
			evidence, v.cpu, v.in, v.out, v.state)
	}

	best, bestScore := "", -1.0
	for _, n := range nodes {
		if exclude[n.Name] {
			d.Candidate(o.ID, n.Name, "excluded", "")
			continue
		}
		l := assigned[n.Name]
		if l.stateUse+v.state > n.MemBytes/2 {
			if d != nil {
				d.Candidate(o.ID, n.Name, "no-mem-fit",
					fmt.Sprintf("state %d + assigned %d > budget %d", v.state, l.stateUse, n.MemBytes/2))
			}
			continue
		}
		// Attainable compute rate: the node's residual capacity, capped by
		// what this operator's parallelism can extract from the node's
		// cores. This is the per-core-frequency term.
		attain := n.Capacity() - l.cpu
		if cap := float64(o.Parallelism) * n.FreqGHz; attain > cap {
			attain = cap
		}
		cpuRatio := 2.0
		if v.cpu > 0 {
			cpuRatio = attain / v.cpu
			if cpuRatio > 2 {
				cpuRatio = 2 // a fit is a fit; don't over-reward idle giants
			}
		}
		cross := crossBytes(t, o, n.Name, placed)
		netRatio := (n.NetBps - l.net - cross) / n.NetBps
		score := cpuRatio
		if netRatio < score {
			score = netRatio
		}
		if d != nil {
			d.Candidate(o.ID, n.Name, "",
				fmt.Sprintf("attain %.2f/%.2f Gcyc/s, NIC headroom %.2f", attain, v.cpu, netRatio))
		}
		if score > bestScore {
			best, bestScore = n.Name, score
		}
	}
	if best == "" {
		// Everything excluded or over-committed: fall back to the first
		// non-excluded node to keep the topology running.
		for _, n := range nodes {
			if !exclude[n.Name] {
				best = n.Name
				d.Note("fallback: every node over-committed")
				break
			}
		}
		if best == "" {
			return ""
		}
	}
	if d != nil {
		d.Node = best
	}
	d.SetWinner(o.ID, "max min(cpu-attain, nic-headroom)", best, false)
	d.Commit()
	return best
}

// charge books the operator's demand onto its chosen node and the edge
// traffic onto both endpoints' NIC budgets.
func (p *rupamPlacer) charge(t *Topology, o *Operator, v demandVec, node string, placed []string, assigned map[string]*load) {
	l, ok := assigned[node]
	if !ok {
		return
	}
	x := t.index()
	l.cpu += v.cpu
	l.stateUse += v.state
	for _, up := range x.in[o.ID] {
		if peer := placed[up]; peer != "" && peer != node {
			bytes := x.outRate[up] * t.Ops[up].BytesPerRecord
			l.net += bytes
			if pl, ok := assigned[peer]; ok {
				pl.net += bytes
			}
		}
	}
	for _, down := range x.out[o.ID] {
		if peer := placed[down]; peer != "" && peer != node {
			bytes := x.outRate[o.ID] * o.BytesPerRecord
			l.net += bytes
			if pl, ok := assigned[peer]; ok {
				pl.net += bytes
			}
		}
	}
}
