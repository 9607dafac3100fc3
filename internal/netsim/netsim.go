// Package netsim is a flow-level network simulator with max-min fair
// bandwidth sharing. Each node has an egress and an ingress capacity (its
// NIC, full duplex); a flow transfers a byte count from one node to
// another and is throttled by whichever of the two directions is more
// contended. Rates of all active flows are recomputed by progressive
// filling (water-filling) whenever a flow starts, finishes, or is
// cancelled, or a NIC's capacity changes. A caller starting several flows
// at one instant can bracket them with Hold and Release to pay for one
// water-fill instead of one per flow.
//
// This reproduces the asymmetry RUPAM exploits in the paper: shuffles
// terminating at a 1 GbE node are ~10× slower than at a 10 GbE node, and
// concurrent shuffle waves contend for the same NICs.
package netsim

import (
	"fmt"
	"math"

	"rupam/internal/simx"
)

const bytesEps = 1e-6

// loopbackRate is the service rate for flows whose source and destination
// are the same node; such transfers are memory copies, effectively free at
// the timescales simulated (but non-zero so event ordering stays sane).
const loopbackRate = 8e9 // 8 GB/s

// flowChunk is the arena block size for Flow allocation: flows are
// allocated in batches (handles escape to callers, so they are batched,
// never recycled).
const flowChunk = 64

// Iface holds one node's NIC state.
type Iface struct {
	name       string
	egressCap  float64 // bytes/sec
	ingressCap float64 // bytes/sec

	egRate, inRate   float64 // currently allocated rates
	egBytes, inBytes float64 // totals transferred

	// water-filling scratch, valid when the stamp equals Network.wfGen
	egStamp, inStamp   uint64
	wfEgRes, wfInRes   float64
	wfEgCount, wfInCnt int
	// cached quotients wfEgRes/count, refreshed by the min-scan each
	// round and re-derived immediately when a freeze mutates the link
	wfEgShare, wfInShare float64
}

// Name returns the node name of the interface.
func (i *Iface) Name() string { return i.name }

// EgressCap returns the NIC's outbound capacity in bytes/sec.
func (i *Iface) EgressCap() float64 { return i.egressCap }

// IngressCap returns the NIC's inbound capacity in bytes/sec.
func (i *Iface) IngressCap() float64 { return i.ingressCap }

// EgressRate returns the currently allocated outbound rate in bytes/sec.
func (i *Iface) EgressRate() float64 { return i.egRate }

// IngressRate returns the currently allocated inbound rate in bytes/sec.
func (i *Iface) IngressRate() float64 { return i.inRate }

// TotalSent returns the total bytes sent by this node.
func (i *Iface) TotalSent() float64 { return i.egBytes }

// TotalReceived returns the total bytes received by this node.
func (i *Iface) TotalReceived() float64 { return i.inBytes }

// Utilization returns the instantaneous utilization fraction of the busier
// direction.
func (i *Iface) Utilization() float64 {
	eg, in := 0.0, 0.0
	if i.egressCap > 0 {
		eg = i.egRate / i.egressCap
	}
	if i.ingressCap > 0 {
		in = i.inRate / i.ingressCap
	}
	return math.Max(eg, in)
}

// Flow is an in-progress transfer.
type Flow struct {
	src, dst  *Iface
	seq       uint64
	remaining float64
	rate      float64
	onDone    func()
	done      bool
	loopback  bool
	wfRate    float64 // water-filling output scratch
}

// Remaining returns the bytes left to transfer as of the last network
// update (call Network.Sync first for an exact figure).
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the flow's currently allocated rate in bytes/sec.
func (f *Flow) Rate() float64 { return f.rate }

// Src returns the node name the flow transfers from.
func (f *Flow) Src() string { return f.src.name }

// Dst returns the node name the flow transfers to.
func (f *Flow) Dst() string { return f.dst.name }

// Done reports whether the flow has finished or been cancelled.
func (f *Flow) Done() bool { return f.done }

// Network is the collection of interfaces and active flows.
type Network struct {
	eng        *simx.Engine
	ifaces     map[string]*Iface
	ifaceList  []*Iface // insertion order, for deterministic iteration
	flows      []*Flow  // seq order; done flows compacted lazily
	live       int      // flows not yet done
	flowSeq    uint64
	lastUpdate float64
	timer      simx.Timer
	target     *Flow // flow the armed timer is for; force-completed on fire
	completeFn func()

	// holding defers re-rating of started flows until Release; stale
	// records that a flow started under the hold has not been rated yet.
	holding bool
	holdAt  float64
	stale   bool

	// scratch, reused across re-rates
	wfGen    uint64
	active   []*Flow  // active non-loopback flows
	wfEg     []*Iface // distinct egress links this waterfill
	wfIn     []*Iface // distinct ingress links this waterfill
	wfAct    []*Flow  // unfrozen flows, compacted between rounds
	finished []*Flow  // complete() scratch
	arena    []Flow   // allocation chunk
}

// New creates an empty network on the given engine.
func New(eng *simx.Engine) *Network {
	n := &Network{eng: eng, ifaces: make(map[string]*Iface)}
	n.completeFn = n.complete
	return n
}

// AddNode registers a node with the given full-duplex NIC capacities in
// bytes/sec. It panics on duplicates or non-positive capacities.
func (n *Network) AddNode(name string, egress, ingress float64) *Iface {
	if _, ok := n.ifaces[name]; ok {
		panic(fmt.Sprintf("netsim: duplicate node %q", name))
	}
	if egress <= 0 || ingress <= 0 {
		panic(fmt.Sprintf("netsim: node %q with non-positive capacity", name))
	}
	i := &Iface{name: name, egressCap: egress, ingressCap: ingress}
	n.ifaces[name] = i
	n.ifaceList = append(n.ifaceList, i)
	return i
}

// Iface returns the interface for the named node, or nil.
func (n *Network) Iface(name string) *Iface { return n.ifaces[name] }

// SetCapacity re-rates a node's NIC mid-simulation (a transient
// degradation window, or its end). In-flight flows keep the bytes already
// transferred and are re-shared max-min fairly at the new capacity. It
// panics on an unknown node or non-positive capacity.
func (n *Network) SetCapacity(name string, egress, ingress float64) {
	i, ok := n.ifaces[name]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown node %q", name))
	}
	if egress <= 0 || ingress <= 0 {
		panic(fmt.Sprintf("netsim: node %q: non-positive capacity", name))
	}
	n.advance()
	i.egressCap, i.ingressCap = egress, ingress
	n.reallocate()
}

// ActiveFlows returns the number of in-progress flows.
func (n *Network) ActiveFlows() int { return n.live }

// newFlow hands out a flow from the arena chunk.
func (n *Network) newFlow() *Flow {
	if len(n.arena) == 0 {
		n.arena = make([]Flow, flowChunk)
	}
	f := &n.arena[0]
	n.arena = n.arena[1:]
	return f
}

// Hold defers re-rating for the flows started until the matching
// Release: a Start under a hold appends its flow without recomputing any
// rate. Hold and Release must bracket one instant of virtual time, and
// nothing may read flow rates or remaining bytes in between. Every
// water-fill recomputes all rates from scratch, and no bytes move within
// one instant, so the rates after Release equal those after re-rating at
// every Start. Only the completion timer's position among same-time
// events can differ: it is re-armed at Release, not at the last Start.
func (n *Network) Hold() {
	if n.holding {
		panic("netsim: nested Hold")
	}
	n.holding = true
	n.holdAt = n.eng.Now()
}

// Release ends a hold and re-rates once if any flow started under it
// has not been rated since.
func (n *Network) Release() {
	if !n.holding {
		panic("netsim: Release without Hold")
	}
	if n.eng.Now() != n.holdAt {
		panic("netsim: hold spans virtual time")
	}
	n.holding = false
	if n.stale {
		n.advance()
		n.reallocate()
	}
}

// Start begins transferring bytes from src to dst; onDone fires at
// completion. Transfers with src == dst run at loopback speed. A
// non-positive byte count completes immediately (asynchronously).
func (n *Network) Start(src, dst string, bytes float64, onDone func()) *Flow {
	s, ok := n.ifaces[src]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown source %q", src))
	}
	d, ok := n.ifaces[dst]
	if !ok {
		panic(fmt.Sprintf("netsim: unknown destination %q", dst))
	}
	n.flowSeq++
	f := n.newFlow()
	*f = Flow{src: s, dst: d, seq: n.flowSeq, remaining: bytes, onDone: onDone, loopback: src == dst}
	if bytes <= bytesEps {
		f.done = true
		n.eng.Schedule(0, func() {
			if onDone != nil {
				onDone()
			}
		})
		return f
	}
	n.advance()
	n.flows = append(n.flows, f)
	n.live++
	if n.holding {
		n.stale = true
		return f
	}
	n.reallocate()
	return f
}

// drop marks a flow done and maintains the live count and lazy
// compaction of the flow list.
func (n *Network) drop(f *Flow) {
	f.done = true
	n.live--
	if len(n.flows) >= 16 && n.live*2 < len(n.flows) {
		liveFlows := n.flows[:0]
		for _, g := range n.flows {
			if !g.done {
				liveFlows = append(liveFlows, g)
			}
		}
		for i := len(liveFlows); i < len(n.flows); i++ {
			n.flows[i] = nil
		}
		n.flows = liveFlows
	}
}

// Cancel aborts a flow without firing its callback, returning the bytes
// not yet transferred.
func (n *Network) Cancel(f *Flow) float64 {
	if f.done {
		return 0
	}
	n.advance()
	rem := f.remaining
	n.drop(f)
	n.reallocate()
	return rem
}

// Redirect cancels an in-flight flow and restarts its untransferred
// remainder from a different source node, preserving the destination and
// completion callback — a reader switching to a replica mid-transfer.
// Returns the replacement flow, or nil if the original had already
// finished (there is nothing left to redirect).
func (n *Network) Redirect(f *Flow, newSrc string) *Flow {
	if f == nil || f.done {
		return nil
	}
	dst, onDone := f.dst.name, f.onDone
	rem := n.Cancel(f)
	return n.Start(newSrc, dst, rem, onDone)
}

// Sync folds the elapsed interval into flow progress and byte totals
// without changing allocations. Call before reading Remaining or the
// byte totals mid-simulation.
func (n *Network) Sync() {
	n.advance()
	// No membership or capacity change: rates are unchanged by
	// construction, only the completion timer needs re-arming against the
	// advanced remaining bytes (the re-arm arithmetic is part of the
	// simulation's float trajectory, so it is not skippable).
	n.rearm()
}

// advance applies transfer progress between lastUpdate and now.
func (n *Network) advance() {
	now := n.eng.Now()
	dt := now - n.lastUpdate
	if dt > 0 {
		for _, f := range n.flows {
			if f.done {
				continue
			}
			moved := f.rate * dt
			f.remaining -= moved
			f.src.egBytes += moved
			f.dst.inBytes += moved
		}
	}
	n.lastUpdate = now
}

// reallocate recomputes max-min fair rates for every active flow after
// a membership or capacity change and re-arms the completion timer.
func (n *Network) reallocate() {
	n.stale = false
	for _, i := range n.ifaceList {
		i.egRate, i.inRate = 0, 0
	}
	if n.live > 0 {
		// Active non-loopback flows, already in seq order.
		netFlows := n.active[:0]
		for _, f := range n.flows {
			if f.done {
				continue
			}
			if f.loopback {
				f.rate = loopbackRate
			} else {
				f.rate = 0
				netFlows = append(netFlows, f)
			}
		}
		n.waterfill(netFlows)
		for i, f := range netFlows {
			f.rate = f.wfRate
			f.src.egRate += f.rate
			f.dst.inRate += f.rate
			netFlows[i] = nil
		}
		n.active = netFlows[:0]
	}
	n.rearm()
}

// rearm scans every active flow for the earliest completion and re-arms
// the single completion timer.
func (n *Network) rearm() {
	n.timer.Cancel()
	n.timer = simx.Timer{}
	n.target = nil
	minT := math.Inf(1)
	var target *Flow
	for _, f := range n.flows {
		if f.done {
			continue
		}
		if f.rate > 0 {
			t := f.remaining / f.rate
			if t < minT {
				minT = t
				target = f
			}
		}
	}
	if target != nil {
		if minT < 0 {
			minT = 0
		}
		n.target = target
		n.timer = n.eng.Schedule(minT, n.completeFn)
	}
}

// waterfill assigns max-min fair rates (into wfRate) to flows constrained
// by source egress and destination ingress capacities. Link bookkeeping
// lives in generation-stamped scratch fields on the interfaces, so the
// pass allocates nothing on the steady path.
func (n *Network) waterfill(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	n.wfGen++
	gen := n.wfGen
	eg := n.wfEg[:0]
	in := n.wfIn[:0]
	for _, f := range flows {
		s, d := f.src, f.dst
		if s.egStamp != gen {
			s.egStamp = gen
			s.wfEgRes = s.egressCap
			s.wfEgCount = 0
			eg = append(eg, s)
		}
		s.wfEgCount++
		if d.inStamp != gen {
			d.inStamp = gen
			d.wfInRes = d.ingressCap
			d.wfInCnt = 0
			in = append(in, d)
		}
		d.wfInCnt++
	}
	// Unfrozen flows and unsaturated links are compacted between rounds
	// (relative order preserved), so each round only touches what is
	// still in play. The arithmetic — which shares are computed, in what
	// order — is plain progressive filling's: frozen flows are absent
	// rather than skipped, and the min over link shares is
	// order-independent.
	act := append(n.wfAct[:0], flows...)
	for len(act) > 0 {
		// Find the bottleneck share among links with unfrozen flows.
		share := math.Inf(1)
		liveEg := eg[:0]
		for _, l := range eg {
			if l.wfEgCount > 0 {
				liveEg = append(liveEg, l)
				s := l.wfEgRes / float64(l.wfEgCount)
				l.wfEgShare = s
				if s < share {
					share = s
				}
			}
		}
		eg = liveEg
		liveIn := in[:0]
		for _, l := range in {
			if l.wfInCnt > 0 {
				liveIn = append(liveIn, l)
				s := l.wfInRes / float64(l.wfInCnt)
				l.wfInShare = s
				if s < share {
					share = s
				}
			}
		}
		in = liveIn
		if math.IsInf(share, 1) {
			break
		}
		// Freeze every unfrozen flow crossing a bottleneck link at the
		// bottleneck share. Link shares are the quotients cached by the
		// min-scan, re-derived on mutation — the same divisions an inline
		// recompute performs, so shares stay bit-identical.
		keep := act[:0]
		for _, f := range act {
			le, li := f.src, f.dst
			if le.wfEgShare <= share+1e-9 || li.wfInShare <= share+1e-9 {
				f.wfRate = share
				le.wfEgRes -= share
				le.wfEgCount--
				if le.wfEgCount > 0 {
					le.wfEgShare = le.wfEgRes / float64(le.wfEgCount)
				}
				li.wfInRes -= share
				li.wfInCnt--
				if li.wfInCnt > 0 {
					li.wfInShare = li.wfInRes / float64(li.wfInCnt)
				}
			} else {
				keep = append(keep, f)
			}
		}
		if len(keep) == len(act) {
			// Numerical safety net: freeze everything at the current share.
			for _, f := range keep {
				f.wfRate = share
			}
			keep = keep[:0]
		}
		act = keep
	}
	n.wfEg = eg[:0]
	n.wfIn = in[:0]
	n.wfAct = act[:0]
}

// complete fires when the earliest flow(s) finish.
func (n *Network) complete() {
	n.timer = simx.Timer{}
	n.advance()
	// Force the targeted flow done: floating-point residue must not re-arm
	// a zero-length timer forever (see PSResource.complete).
	if t := n.target; t != nil && !t.done {
		t.remaining = 0
	}
	n.target = nil
	// The flow list is in seq order, so finished comes out sorted and the
	// callback order is deterministic by construction.
	finished := n.finished[:0]
	for _, f := range n.flows {
		if !f.done && f.remaining <= bytesEps {
			finished = append(finished, f)
		}
	}
	for _, f := range finished {
		n.drop(f)
		f.remaining = 0
	}
	n.reallocate()
	for _, f := range finished {
		if f.onDone != nil {
			f.onDone()
		}
	}
	for i := range finished {
		finished[i] = nil
	}
	n.finished = finished[:0]
}
