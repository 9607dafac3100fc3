package federation

import (
	"sort"

	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/stats"
)

// Plane is the federation's control-plane transport: point-to-point
// message delivery between named endpoints (agents register under their
// node name, drivers under "driver:<id>") with a fixed base latency
// (msgLatency) and seeded message faults. It deliberately has no
// reliability of its own — drop, duplicate, delay and reorder windows from
// a fault schedule apply per message, so every protocol participant must
// tolerate loss, dups and reordering. Delivery to a down endpoint (a
// crashed driver) silently drops, modeling a dead process's socket.
type Plane struct {
	eng      *simx.Engine
	rng      *stats.Rand
	handlers map[string]func(from string, m Message)
	down     map[string]bool
	windows  []faults.Event // message-fault windows only, deterministic order
	// free holds delivery records whose event has fired, for reuse by
	// the next Send: the steady path schedules deliveries without
	// allocating.
	free []*delivery

	// Counters for reports and fingerprints.
	Sent      int
	Delivered int
	Dropped   int
	Duped     int
	Delayed   int
	Reordered int
}

// NewPlane creates a transport on the engine. The seed scopes every fault
// coin flip, so a fixed (seed, schedule) pair yields a bit-identical
// loss/reorder pattern for the same message sequence.
func NewPlane(eng *simx.Engine, seed uint64) *Plane {
	return &Plane{
		eng:      eng,
		rng:      stats.NewRand(seed ^ 0x91a9e5eed),
		handlers: make(map[string]func(string, Message)),
		down:     make(map[string]bool),
	}
}

// Handle registers addr's message handler, replacing any previous one.
func (p *Plane) Handle(addr string, fn func(from string, m Message)) {
	p.handlers[addr] = fn
}

// SetDown marks an endpoint dead (true) or alive (false). Messages
// arriving at a dead endpoint are dropped.
func (p *Plane) SetDown(addr string, down bool) {
	if down {
		p.down[addr] = true
	} else {
		delete(p.down, addr)
	}
}

// Install adopts the schedule's message-fault windows (all other kinds
// are the node injector's business and are ignored here). Windows apply
// at Send time: a message leaving inside a window suffers the fault.
func (p *Plane) Install(s *faults.Schedule) {
	if s.Empty() {
		return
	}
	for _, ev := range s.Events {
		if ev.Kind.IsMessageKind() {
			p.windows = append(p.windows, ev)
		}
	}
	// Deterministic application order regardless of schedule assembly.
	sort.SliceStable(p.windows, func(a, b int) bool {
		if p.windows[a].At != p.windows[b].At {
			return p.windows[a].At < p.windows[b].At
		}
		if p.windows[a].Node != p.windows[b].Node {
			return p.windows[a].Node < p.windows[b].Node
		}
		return p.windows[a].Kind < p.windows[b].Kind
	})
}

// matches reports whether a window scopes this edge: an empty Node is
// every edge; a named scope matches either endpoint.
func windowMatches(ev faults.Event, from, to string) bool {
	return ev.Node == "" || ev.Node == from || ev.Node == to
}

// Send transmits one message. The faults roll in deterministic window
// order: a drop consumes the message outright; a dup schedules a second
// copy half a latency behind the first; delay and reorder stretch the
// delivery time. Fault coins draw from the plane's own RNG in send order,
// so the loss pattern is a pure function of (seed, message sequence).
func (p *Plane) Send(from, to string, m Message) {
	p.Sent++
	now := p.eng.Now()
	extra := 0.0
	copies := 1
	for _, ev := range p.windows {
		if now < ev.At || now >= ev.At+ev.Duration || !windowMatches(ev, from, to) {
			continue
		}
		switch ev.Kind {
		case faults.MsgDrop:
			if p.rng.Float64() < ev.Factor {
				p.Dropped++
				return
			}
		case faults.MsgDup:
			if p.rng.Float64() < ev.Factor {
				copies = 2
				p.Duped++
			}
		case faults.MsgDelay:
			if p.rng.Float64() < ev.Factor {
				extra += ev.Delay
				p.Delayed++
			}
		case faults.MsgReorder:
			if p.rng.Float64() < ev.Factor {
				// A random skew of up to four base latencies is enough to
				// let any later message overtake this one.
				extra += p.rng.Float64() * msgLatency * 4
				p.Reordered++
			}
		}
	}
	for c := 0; c < copies; c++ {
		delay := msgLatency + extra + float64(c)*msgLatency*0.5
		var dv *delivery
		if n := len(p.free); n > 0 {
			dv = p.free[n-1]
			p.free[n-1] = nil
			p.free = p.free[:n-1]
		} else {
			dv = &delivery{p: p}
			dv.fire = dv.run
		}
		dv.from, dv.to, dv.m = from, to, m
		p.eng.Schedule(delay, dv.fire)
	}
}

// delivery is one message in flight. Its fire func is bound once, when
// the record is first made, and the record returns to the plane's free
// list as it fires.
type delivery struct {
	p        *Plane
	from, to string
	m        Message
	fire     func()
}

// run delivers the message. The record goes back to the free list before
// the handler runs, because the handler may Send and reuse it.
func (dv *delivery) run() {
	p, from, to, m := dv.p, dv.from, dv.to, dv.m
	p.free = append(p.free, dv)
	p.deliver(from, to, m)
}

func (p *Plane) deliver(from, to string, m Message) {
	h := p.handlers[to]
	if h == nil || p.down[to] {
		p.Dropped++
		return
	}
	p.Delivered++
	h(from, m)
}
