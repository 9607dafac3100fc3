package simx

import "fmt"

const demandEps = 1e-9

// claimChunk is the arena block size for Claim allocation. Claims are
// allocated in batches to amortize allocator overhead; they are never
// recycled (handles escape to callers), only batched.
const claimChunk = 64

// PSResource models a processor-sharing resource: a server with a total
// service rate (capacity) shared equally among active claims, optionally
// capped per claim. It models:
//
//   - CPU: capacity = cores × GHz, per-claim cap = GHz (a task cannot use
//     more than one core), so contention only appears once active tasks
//     exceed the core count — exactly the over-commit regime the paper's
//     §III-C2 discusses;
//   - disk bandwidth: capacity = device MB/s, no per-claim cap.
//
// Claims carry a service demand (e.g. giga-cycles, bytes) and a completion
// callback. Whenever membership changes, remaining demands are advanced and
// the next completion event is rescheduled.
//
// Re-rating is strictly local: only this resource's claims are touched on
// any event, and the bookkeeping below is allocation-free on the steady
// path (claims come from an arena, the claim list is a recycled slice, and
// the completion timer reuses pooled engine nodes).
type PSResource struct {
	eng         *Engine
	name        string
	capacity    float64
	perClaimCap float64
	claims      []*Claim // acquisition order; done claims compacted lazily
	active      int      // live (not done) claims in the slice
	lastUpdate  float64
	timer       Timer
	target      *Claim  // claim the armed timer is for; force-completed on fire
	served      float64 // total demand served
	claimSeq    uint64
	completeFn  func()   // bound once; avoids a closure per reschedule
	finished    []*Claim // scratch for complete()
	arena       []Claim  // current allocation chunk
}

// Claim is an in-progress request for service from a PSResource.
type Claim struct {
	res       *PSResource
	seq       uint64
	remaining float64
	onDone    func()
	done      bool
}

// NewPSResource creates a processor-sharing resource. capacity is the total
// service rate per second; perClaimCap (0 = unlimited) bounds the rate any
// single claim may receive.
func NewPSResource(eng *Engine, name string, capacity, perClaimCap float64) *PSResource {
	if capacity <= 0 {
		panic(fmt.Sprintf("simx: resource %q with non-positive capacity", name))
	}
	r := &PSResource{
		eng:         eng,
		name:        name,
		capacity:    capacity,
		perClaimCap: perClaimCap,
		lastUpdate:  eng.Now(),
	}
	r.completeFn = r.complete
	return r
}

// Name returns the resource's diagnostic name.
func (r *PSResource) Name() string { return r.name }

// Capacity returns the total service rate.
func (r *PSResource) Capacity() float64 { return r.capacity }

// PerClaimCap returns the per-claim rate bound (0 = unlimited). For a CPU
// this is the effective per-core speed, which fault injection may have
// rescaled below the node's spec frequency.
func (r *PSResource) PerClaimCap() float64 { return r.perClaimCap }

// SetCapacity changes the total service rate (used to model DVFS-style
// frequency changes). In-flight claims are advanced at the old rate first.
func (r *PSResource) SetCapacity(c float64) {
	if c <= 0 {
		panic("simx: SetCapacity with non-positive capacity")
	}
	r.advance()
	r.capacity = c
	r.reschedule()
}

// SetPerClaimCap changes the per-claim rate bound (DVFS changes the speed
// of a single core, not just the aggregate). In-flight claims are advanced
// at the old rate first.
func (r *PSResource) SetPerClaimCap(c float64) {
	if c < 0 {
		panic("simx: SetPerClaimCap with negative cap")
	}
	r.advance()
	r.perClaimCap = c
	r.reschedule()
}

// ratePerClaim returns the current service rate each claim receives.
func (r *PSResource) ratePerClaim() float64 {
	n := r.active
	if n == 0 {
		return 0
	}
	rate := r.capacity / float64(n)
	if r.perClaimCap > 0 && rate > r.perClaimCap {
		rate = r.perClaimCap
	}
	return rate
}

// Utilization returns the instantaneous fraction of capacity in use.
func (r *PSResource) Utilization() float64 {
	if r.capacity == 0 {
		return 0
	}
	return r.ratePerClaim() * float64(r.active) / r.capacity
}

// TotalServed returns the total demand served so far.
func (r *PSResource) TotalServed() float64 {
	r.advance()
	r.reschedule()
	return r.served
}

// newClaim hands out a claim from the arena chunk.
func (r *PSResource) newClaim() *Claim {
	if len(r.arena) == 0 {
		r.arena = make([]Claim, claimChunk)
	}
	c := &r.arena[0]
	r.arena = r.arena[1:]
	return c
}

// Acquire starts serving a claim with the given demand; onDone fires when
// the demand has been fully served. A non-positive demand completes at the
// current time (asynchronously, preserving event ordering).
func (r *PSResource) Acquire(demand float64, onDone func()) *Claim {
	r.claimSeq++
	c := r.newClaim()
	*c = Claim{res: r, seq: r.claimSeq, remaining: demand, onDone: onDone}
	if demand <= demandEps {
		c.done = true
		r.eng.Schedule(0, func() {
			if onDone != nil {
				onDone()
			}
		})
		return c
	}
	r.advance()
	r.claims = append(r.claims, c)
	r.active++
	r.reschedule()
	return c
}

// compact removes done claims from the claim slice once they outnumber the
// live ones, preserving acquisition order.
func (r *PSResource) compact() {
	if len(r.claims) < 16 || r.active*2 > len(r.claims) {
		return
	}
	live := r.claims[:0]
	for _, c := range r.claims {
		if !c.done {
			live = append(live, c)
		}
	}
	for i := len(live); i < len(r.claims); i++ {
		r.claims[i] = nil
	}
	r.claims = live
}

// Cancel aborts an in-progress claim without firing its callback. It
// returns the remaining (unserved) demand; cancelling a finished claim
// returns 0.
func (c *Claim) Cancel() float64 {
	if c.done {
		return 0
	}
	r := c.res
	r.advance()
	c.done = true
	r.active--
	r.compact()
	rem := c.remaining
	r.reschedule()
	return rem
}

// Remaining returns the unserved demand of the claim at the current time.
func (c *Claim) Remaining() float64 {
	if c.done {
		return 0
	}
	r := c.res
	r.advance()
	r.reschedule()
	return c.remaining
}

// advance applies service between lastUpdate and now to all active
// claims. It does not fire completions —
// reschedule does, via the event queue, so that callbacks never run inside
// another resource's mutation.
func (r *PSResource) advance() {
	now := r.eng.Now()
	rate := r.ratePerClaim()
	dt := now - r.lastUpdate
	if dt > 0 && rate > 0 {
		servedEach := rate * dt
		for _, c := range r.claims {
			if c.done {
				continue
			}
			c.remaining -= servedEach
			r.served += servedEach
		}
	}
	r.lastUpdate = now
}

// reschedule computes the earliest completion among active claims and
// (re)arms the completion timer.
func (r *PSResource) reschedule() {
	r.timer.Cancel()
	r.timer = Timer{}
	r.target = nil
	rate := r.ratePerClaim()
	if rate <= 0 {
		return
	}
	var target *Claim
	for _, c := range r.claims {
		if c.done {
			continue
		}
		if target == nil || c.remaining < target.remaining ||
			(c.remaining == target.remaining && c.seq < target.seq) {
			target = c
		}
	}
	if target == nil {
		return
	}
	delay := target.remaining / rate
	if delay < 0 {
		delay = 0
	}
	r.target = target
	r.timer = r.eng.Schedule(delay, r.completeFn)
}

// complete fires when the earliest claim(s) finish: it advances service,
// removes every claim whose demand is exhausted, invokes their callbacks,
// and re-arms the timer.
func (r *PSResource) complete() {
	r.timer = Timer{}
	r.advance()
	// The timer was armed for r.target's exact completion; floating-point
	// rounding can leave a vanishing residue that would otherwise re-arm
	// a zero-length timer forever, so the target is completed by fiat.
	if t := r.target; t != nil && !t.done {
		t.remaining = 0
	}
	r.target = nil
	// The claim slice is in acquisition order, so finished comes out
	// sorted by seq — callback order is deterministic by construction.
	finished := r.finished[:0]
	for _, c := range r.claims {
		if !c.done && c.remaining <= demandEps {
			finished = append(finished, c)
		}
	}
	for _, c := range finished {
		c.done = true
		c.remaining = 0
		r.active--
	}
	r.compact()
	r.reschedule()
	// Callbacks run after bookkeeping so they observe a consistent
	// resource state and may immediately Acquire again.
	for _, c := range finished {
		if c.onDone != nil {
			c.onDone()
		}
	}
	for i := range finished {
		finished[i] = nil
	}
	r.finished = finished[:0]
}
