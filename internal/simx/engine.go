// Package simx is the discrete-event simulation kernel underneath the
// whole reproduction: a virtual clock with a cancellable event heap, plus
// the three resource abstractions the cluster model needs —
// processor-sharing resources (CPU, disk bandwidth), space resources
// (memory), and token resources (GPUs).
//
// The simulation is strictly single-threaded and deterministic: events at
// equal timestamps fire in scheduling order, and no wall-clock or global
// PRNG state is consulted. Running the same experiment twice produces
// byte-identical output, which the test suite relies on.
package simx

import (
	"fmt"
	"math"

	"rupam/internal/pq"
)

// timerNode is the heap entry behind a Timer handle. Nodes are recycled
// through a per-engine free list once they leave the heap; the gen field
// makes stale handles to a recycled node inert (see Timer).
type timerNode struct {
	t        float64
	seq      uint64
	gen      uint64
	fn       func()
	canceled bool
}

// Timer is a handle to a scheduled event; Cancel prevents it from firing.
// The zero value is an inert handle: Cancel is a no-op and Canceled
// reports true. Handles are values — copy them freely; cancelling any
// copy cancels the event. A handle held across the event's firing stays
// safe even though the underlying node is recycled: the generation check
// turns operations on a stale handle into no-ops.
type Timer struct {
	n   *timerNode
	gen uint64
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op.
func (t Timer) Cancel() {
	if t.n != nil && t.n.gen == t.gen {
		t.n.canceled = true
		t.n.fn = nil
	}
}

// Canceled reports whether the timer can no longer fire: it was cancelled,
// has already fired, or is the zero handle.
func (t Timer) Canceled() bool { return t.n == nil || t.n.gen != t.gen || t.n.canceled }

// Active reports whether the timer is still armed (scheduled, not yet
// fired, not cancelled).
func (t Timer) Active() bool { return !t.Canceled() }

// PoolStats reports timer-node pool behaviour, for leak tests and the
// perf battery.
type PoolStats struct {
	Gets  uint64 // nodes taken from the free list
	Puts  uint64 // nodes returned to the free list
	News  uint64 // nodes freshly allocated
	Free  int    // nodes currently on the free list
	InUse int    // nodes currently in the heap
}

// Engine is the event loop. The zero value is not usable; use NewEngine.
type Engine struct {
	now     float64
	seq     uint64
	events  *pq.Heap[*timerNode]
	running bool
	fired   uint64

	free []*timerNode
	gets uint64
	puts uint64
	news uint64
}

// engineObserver, when set, is invoked from NewEngine with every engine
// created. The perf battery uses it to sum fired-event counts across
// engines that harnesses construct internally. It must only be set from a
// single goroutine with no engines running (the bench binary and the perf
// package's serial tests).
var engineObserver func(*Engine)

// SetEngineObserver installs (or, with nil, removes) a hook called with
// every engine NewEngine creates. Not safe for concurrent use with engine
// construction; intended for the perf harness only.
func SetEngineObserver(fn func(*Engine)) { engineObserver = fn }

// NewEngine returns an engine with the clock at 0.
func NewEngine() *Engine {
	e := &Engine{
		events: pq.New(func(a, b *timerNode) bool {
			if a.t != b.t {
				return a.t < b.t
			}
			return a.seq < b.seq
		}),
	}
	if engineObserver != nil {
		engineObserver(e)
	}
	return e
}

// PoolStats returns the timer-node pool counters.
func (e *Engine) PoolStats() PoolStats {
	return PoolStats{Gets: e.gets, Puts: e.puts, News: e.news, Free: len(e.free), InUse: e.events.Len()}
}

// Fired returns the number of events executed so far — the denominator of
// the perf battery's events/sec and allocs/event counters.
func (e *Engine) Fired() uint64 { return e.fired }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// getNode returns a timer node, recycling from the free list.
func (e *Engine) getNode() *timerNode {
	if n := len(e.free); n > 0 {
		nd := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.gets++
		return nd
	}
	e.news++
	return &timerNode{}
}

// putNode retires a node that has left the heap. The generation bump
// invalidates every outstanding handle before the node is reused.
func (e *Engine) putNode(nd *timerNode) {
	nd.gen++
	nd.fn = nil
	nd.canceled = false
	e.free = append(e.free, nd)
	e.puts++
}

// Schedule runs fn after delay seconds of virtual time. A non-positive
// delay fires the event at the current time, after already-queued events
// at this time. It returns a Timer that can cancel the callback.
func (e *Engine) Schedule(delay float64, fn func()) Timer {
	if delay < 0 || math.IsNaN(delay) {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (clamped to now if in the past).
func (e *Engine) At(t float64, fn func()) Timer {
	if t < e.now {
		t = e.now
	}
	e.seq++
	nd := e.getNode()
	nd.t, nd.seq, nd.fn, nd.canceled = t, e.seq, fn, false
	e.events.Push(nd)
	return Timer{n: nd, gen: nd.gen}
}

// Run processes events until the queue is empty. It panics if called
// re-entrantly from an event callback.
func (e *Engine) Run() {
	e.RunUntil(math.Inf(1))
}

// RunUntil processes events with timestamps <= limit, then advances the
// clock to limit (if finite). Events scheduled during the run are
// processed if they fall within the limit.
func (e *Engine) RunUntil(limit float64) {
	if e.running {
		panic("simx: re-entrant Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.events.Len() > 0 {
		nd := e.events.Peek()
		if nd.t > limit {
			break
		}
		e.events.Pop()
		if nd.canceled {
			e.putNode(nd)
			continue
		}
		if nd.t < e.now {
			panic(fmt.Sprintf("simx: event time %v before now %v", nd.t, e.now))
		}
		e.now = nd.t
		fn := nd.fn
		e.putNode(nd)
		e.fired++
		fn()
	}
	if !math.IsInf(limit, 1) && limit > e.now {
		e.now = limit
	}
}

// Step processes the single earliest pending event and reports whether one
// existed. Primarily useful in tests.
func (e *Engine) Step() bool {
	for e.events.Len() > 0 {
		nd := e.events.Pop()
		if nd.canceled {
			e.putNode(nd)
			continue
		}
		e.now = nd.t
		fn := nd.fn
		e.putNode(nd)
		e.fired++
		fn()
		return true
	}
	return false
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int { return e.events.Len() }
