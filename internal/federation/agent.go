package federation

import (
	"fmt"
	"sort"

	"rupam/internal/digest"
	"rupam/internal/simx"
)

// agentClaim is one live reservation at an agent.
type agentClaim struct {
	id        ClaimID
	driver    string // reply address
	slots     int
	committed bool
	expiry    simx.Timer // armed while accepted, cancelled at commit
}

// Agent owns one node's core slots for the placement protocol. It is a
// pure message-driven state machine: PROPOSE reserves (with deterministic
// lowest-ID-wins arbitration when the node is contended), COMMIT pins,
// ABORT/RELEASE free. It defends against every transport pathology —
// proposals for a claim ID that has ended are refused from a tombstone
// set, and accepted-but-uncommitted claims expire on their own so a
// proposing driver's death cannot leak slots — and it is itself a fault
// domain: a Crash wipes every claim, timer and tombstone (node-local
// daemon state does not survive the process), and a Restart bumps the
// incarnation, fences off pre-crash messages, and rebuilds surviving
// reservations via the RESYNC handshake before accepting new proposals.
type Agent struct {
	Name     string
	Capacity int

	eng   *simx.Engine
	plane *Plane

	claims map[ClaimID]*agentClaim
	// tombstones holds every claim ID this incarnation rejected, expired,
	// evicted, aborted or released: such an ID is never accepted again.
	tombstones map[ClaimID]struct{}

	// drivers is the broadcast list for the restart RESYNC handshake,
	// installed once at harness build time.
	drivers []string
	// TaskRunning, if set, reports whether the executor co-located with
	// the agent currently runs an attempt of the task — the cross-check a
	// restarted agent applies to bound RESYNC_CLAIMs before rebuilding
	// their reservations. Nil trusts the drivers' answers.
	TaskRunning func(taskID int) bool

	down bool
	// inc is the incarnation: the crash count, starting at 0, stamped on
	// every outgoing message. PROPOSE/COMMIT carrying any other value are
	// refused — they predate the crash that wiped the state they assume.
	inc uint64
	// Resync-handshake state, live only between Restart and the last
	// RESYNC_END (or the resync deadline).
	resyncing      bool
	resyncWait     map[string]bool // drivers whose RESYNC_END is still missing
	resyncTimers   map[string]simx.Timer
	resyncTries    map[string]int
	resyncDeadline simx.Timer

	reserved int
	// MaxReserved is the high-water mark of simultaneously reserved
	// slots; the invariant battery checks it never exceeded Capacity.
	MaxReserved int
	// Accepts/Commits/Rejects/Expiries count protocol outcomes.
	Accepts  int
	Commits  int
	Rejects  int
	Expiries int
	// Crashes/Restarts/Resyncs count fault episodes; Rebuilt counts claims
	// reconstructed from driver RESYNC answers; StaleRejects counts
	// PROPOSE/COMMITs refused for carrying a dead incarnation or arriving
	// mid-resync.
	Crashes      int
	Restarts     int
	Resyncs      int
	Rebuilt      int
	StaleRejects int

	digest    uint64
	violation func(string)
}

// NewAgent creates the agent and registers it on the plane under the node
// name. violation receives invariant breaches (never nil-checked hot).
func NewAgent(eng *simx.Engine, plane *Plane, node string, capacity int, violation func(string)) *Agent {
	a := &Agent{
		Name:       node,
		Capacity:   capacity,
		eng:        eng,
		plane:      plane,
		claims:     make(map[ClaimID]*agentClaim),
		tombstones: make(map[ClaimID]struct{}),
		digest:     digest.New().Sum64(),
		violation:  violation,
	}
	plane.Handle(node, a.handle)
	return a
}

// Reserved returns the currently reserved slot count.
func (a *Agent) Reserved() int { return a.reserved }

// LiveClaims returns how many claims the agent currently holds.
func (a *Agent) LiveClaims() int { return len(a.claims) }

// SetDrivers installs the driver address list a restarted agent broadcasts
// RESYNC to.
func (a *Agent) SetDrivers(addrs []string) { a.drivers = addrs }

// Incarnation returns the agent's crash count; boot is incarnation 0.
func (a *Agent) Incarnation() uint64 { return a.inc }

// Down reports whether the agent is currently crashed.
func (a *Agent) Down() bool { return a.down }

// Crash kills the agent amnesiac: every claim, expiry timer and tombstone
// is wiped and the reserved slots are implicitly freed — node-local daemon
// state does not survive the process. The plane drops deliveries while the
// agent is down; Restart brings it back under a new incarnation.
func (a *Agent) Crash() {
	if a.down {
		return
	}
	a.down = true
	a.Crashes++
	a.mix(^uint64(1), a.inc)
	a.plane.SetDown(a.Name, true)
	for _, c := range a.claims {
		c.expiry.Cancel()
	}
	a.claims = make(map[ClaimID]*agentClaim)
	a.tombstones = make(map[ClaimID]struct{})
	a.reserved = 0
	a.stopResync()
}

// Restart brings a crashed agent back with empty state and a bumped
// incarnation. It must not trust that emptiness: committed claims may
// still back attempts that survived the crash (only the daemon died), so
// it broadcasts Resync(inc) to every driver and rebuilds reservations from
// their answers. Until the handshake closes every PROPOSE is refused with
// a retry hint — accepting on a partial view could over-commit the node
// once the rebuilt claims land.
func (a *Agent) Restart() {
	if !a.down {
		return
	}
	a.down = false
	a.inc++
	a.Restarts++
	a.mix(^uint64(2), a.inc)
	a.plane.SetDown(a.Name, false)
	a.resyncing = true
	if len(a.drivers) == 0 {
		a.finishResync()
		return
	}
	a.resyncWait = make(map[string]bool, len(a.drivers))
	a.resyncTimers = make(map[string]simx.Timer, len(a.drivers))
	a.resyncTries = make(map[string]int, len(a.drivers))
	for _, addr := range a.drivers {
		a.resyncWait[addr] = true
		a.sendResync(addr)
	}
	a.resyncDeadline = a.eng.Schedule(resyncTimeout, a.finishResync)
}

// sendResync transmits one RESYNC and arms the next bounded retransmit
// (try i waits retryTimeout×i, like the drivers' cycles). After maxRetries
// the driver is presumed dead; the resync deadline closes the handshake
// without it.
func (a *Agent) sendResync(addr string) {
	a.plane.Send(a.Name, addr, Message{Type: Resync, Inc: a.inc})
	a.resyncTries[addr]++
	tries := a.resyncTries[addr]
	if tries >= maxRetries {
		return
	}
	a.resyncTimers[addr] = a.eng.Schedule(retryTimeout*float64(tries), func() {
		if a.down || !a.resyncing || !a.resyncWait[addr] {
			return
		}
		a.sendResync(addr)
	})
}

// stopResync tears down the handshake timers without closing the episode.
func (a *Agent) stopResync() {
	a.resyncing = false
	for _, t := range a.resyncTimers {
		t.Cancel()
	}
	a.resyncTimers = nil
	a.resyncWait = nil
	a.resyncTries = nil
	a.resyncDeadline.Cancel()
	a.resyncDeadline = simx.Timer{}
}

// finishResync closes the handshake: every driver answered, or the
// deadline lapsed (a crashed driver cannot answer; it learns the new
// incarnation from reply stamps once it recovers). Late RESYNC_CLAIMs for
// the current incarnation still rebuild — they only heal an undercount.
func (a *Agent) finishResync() {
	if !a.resyncing {
		return
	}
	a.stopResync()
	a.Resyncs++
	a.mix(^uint64(3), a.inc, uint64(a.reserved))
}

// Digest is a running FNV fingerprint of every state transition, used by
// the soak's bit-identity check.
func (a *Agent) Digest() uint64 { return a.digest }

func (a *Agent) mix(parts ...uint64) {
	h := digest.New()
	h.U64(a.digest)
	for _, p := range parts {
		h.U64(p)
	}
	a.digest = h.Sum64()
}

func (a *Agent) violate(format string, args ...interface{}) {
	if a.violation != nil {
		a.violation(fmt.Sprintf("agent %s: %s", a.Name, fmt.Sprintf(format, args...)))
	}
}

// reserve adjusts the reserved count, enforcing 0 ≤ reserved ≤ Capacity
// at every transition — the "no slot double-committed" invariant held
// online rather than only at run end.
func (a *Agent) reserve(delta int) {
	a.reserved += delta
	if a.reserved < 0 {
		a.violate("reserved went negative (%d)", a.reserved)
	}
	if a.reserved > a.Capacity {
		a.violate("reserved %d exceeds capacity %d", a.reserved, a.Capacity)
	}
	if a.reserved > a.MaxReserved {
		a.MaxReserved = a.reserved
	}
}

func (a *Agent) handle(from string, m Message) {
	if a.down {
		// A dead daemon's socket: the plane normally drops these, but a
		// delivery already in flight when the crash struck lands here.
		return
	}
	a.mix(uint64(m.Type), uint64(m.Claim.Driver), m.Claim.Seq, uint64(a.reserved))
	switch m.Type {
	case Propose:
		a.onPropose(from, m)
	case Commit:
		a.onCommit(from, m)
	case Abort:
		a.onAbort(from, m)
	case Release:
		a.onRelease(from, m)
	case ResyncClaim:
		a.onResyncClaim(from, m)
	case ResyncEnd:
		a.onResyncEnd(from, m)
	}
}

func (a *Agent) onPropose(from string, m Message) {
	if m.Inc != a.inc {
		// Incarnation fence: the proposal predates a crash (or carries a
		// recovered driver's stale view). Refuse without tombstoning — the
		// claim was never accepted under this incarnation — and let the
		// reply's stamp teach the sender where the agent is now.
		a.StaleRejects++
		a.plane.Send(a.Name, from, Message{Type: Reject, Claim: m.Claim, Inc: a.inc,
			RetryAfter: a.eng.Now() + retryTimeout})
		return
	}
	if a.resyncing {
		// Mid-resync the reserved count is a lower bound, not the truth:
		// accepting now could over-commit the node once the rebuilt claims
		// land. Refuse with a hint to retry after the window closes.
		a.StaleRejects++
		a.plane.Send(a.Name, from, Message{Type: Reject, Claim: m.Claim, Inc: a.inc,
			RetryAfter: a.eng.Now() + resyncTimeout})
		return
	}
	if c, ok := a.claims[m.Claim]; ok {
		// Duplicate PROPOSE of a live claim: replay the accept verbatim.
		a.plane.Send(a.Name, from, Message{Type: Accept, Claim: c.id, Inc: a.inc})
		return
	}
	if _, dead := a.tombstones[m.Claim]; dead {
		// A claim ID is never resurrected: whatever ended it (reject,
		// expiry, abort) is final, so duplicates and stale retransmits
		// deterministically converge on REJECT.
		a.plane.Send(a.Name, from, Message{Type: Reject, Claim: m.Claim, Inc: a.inc, RetryAfter: a.eng.Now() + retryTimeout})
		return
	}
	if m.Slots <= 0 || m.Slots > a.Capacity {
		a.rejectNow(from, m.Claim)
		return
	}
	if a.Capacity-a.reserved < m.Slots {
		// Contended: deterministic arbitration. Accepted-but-uncommitted
		// claims with IDs *greater* than the incoming one are evicted
		// (lowest driver-then-sequence wins) if that frees enough slots;
		// committed claims are untouchable.
		if !a.evictFor(m) {
			a.rejectNow(from, m.Claim)
			return
		}
	}
	c := &agentClaim{id: m.Claim, driver: from, slots: m.Slots}
	a.claims[c.id] = c
	a.reserve(c.slots)
	a.Accepts++
	c.expiry = a.eng.Schedule(acceptTTL, func() { a.expire(c.id) })
	a.plane.Send(a.Name, from, Message{Type: Accept, Claim: c.id, Inc: a.inc})
}

// evictFor tries to free enough slots for m by evicting accepted,
// uncommitted claims that lose the arbitration (their ID is greater than
// the proposer's). Victims are evicted highest-ID-first. Returns whether
// enough slots were freed.
func (a *Agent) evictFor(m Message) bool {
	var losers []*agentClaim
	freeable := a.Capacity - a.reserved
	for _, c := range a.claims {
		if !c.committed && m.Claim.Less(c.id) {
			losers = append(losers, c)
			freeable += c.slots
		}
	}
	if freeable < m.Slots {
		return false
	}
	sort.Slice(losers, func(i, j int) bool { return losers[j].id.Less(losers[i].id) })
	need := m.Slots - (a.Capacity - a.reserved)
	for _, c := range losers {
		if need <= 0 {
			break
		}
		a.drop(c)
		need -= c.slots
		a.plane.Send(a.Name, c.driver, Message{Type: Reject, Claim: c.id, Inc: a.inc, RetryAfter: a.eng.Now() + retryTimeout})
	}
	return true
}

func (a *Agent) rejectNow(from string, id ClaimID) {
	a.tombstones[id] = struct{}{}
	a.Rejects++
	a.plane.Send(a.Name, from, Message{Type: Reject, Claim: id, Inc: a.inc, RetryAfter: a.eng.Now() + retryTimeout})
}

// drop removes a live claim, frees its slots and tombstones the ID.
func (a *Agent) drop(c *agentClaim) {
	c.expiry.Cancel()
	delete(a.claims, c.id)
	a.tombstones[c.id] = struct{}{}
	a.reserve(-c.slots)
}

// expire fires when an accepted claim's TTL lapses without a commit: the
// proposing driver is presumed dead or partitioned, and the slots return
// to the pool. A committed claim never expires.
func (a *Agent) expire(id ClaimID) {
	c, ok := a.claims[id]
	if !ok || c.committed {
		return
	}
	a.mix(uint64(id.Driver), id.Seq, ^uint64(0))
	a.drop(c)
	a.Expiries++
}

func (a *Agent) onCommit(from string, m Message) {
	if m.Inc != a.inc {
		// Incarnation fence: a COMMIT stamped with a dead incarnation must
		// not pin anything — whatever ACCEPT it chases was wiped by the
		// crash, and honoring it here would double-reserve the slots the
		// resync rebuilt for someone else. NACK so the driver gives up the
		// ID and re-proposes.
		a.StaleRejects++
		a.plane.Send(a.Name, from, Message{Type: CommitNack, Claim: m.Claim, Inc: a.inc})
		return
	}
	c, ok := a.claims[m.Claim]
	if !ok {
		// Expired, evicted, or never heard of: the driver must give up
		// this claim ID and re-propose under a fresh one.
		a.plane.Send(a.Name, from, Message{Type: CommitNack, Claim: m.Claim, Inc: a.inc})
		return
	}
	if !c.committed {
		c.committed = true
		c.expiry.Cancel()
		a.Commits++
	}
	// Idempotent: a duplicate COMMIT re-acks without touching state.
	a.plane.Send(a.Name, from, Message{Type: CommitAck, Claim: c.id, Inc: a.inc})
}

// Aborts and releases are acked regardless of incarnation: both only ever
// free resources, so acting on a stale one is safe (the claim is simply
// unknown after a crash) and refusing it would wedge the sender's
// must-terminate ack cycle.

func (a *Agent) onAbort(from string, m Message) {
	if c, ok := a.claims[m.Claim]; ok {
		a.drop(c)
	} else {
		// Unknown (already expired/aborted, or wiped by a crash): still ack —
		// the driver only needs to know the claim is gone — but tombstone the
		// ID anyway. The ack finishes the claim driver-side, so a delayed
		// RESYNC_CLAIM answer reordered behind this abort must not resurrect
		// a reservation nobody will ever free.
		a.tombstones[m.Claim] = struct{}{}
	}
	a.plane.Send(a.Name, from, Message{Type: AbortAck, Claim: m.Claim, Inc: a.inc})
}

func (a *Agent) onRelease(from string, m Message) {
	if c, ok := a.claims[m.Claim]; ok {
		a.drop(c)
	} else {
		// Same tombstone-the-unknown rule as onAbort, and for the same
		// reordering race against a late RESYNC_CLAIM.
		a.tombstones[m.Claim] = struct{}{}
	}
	a.plane.Send(a.Name, from, Message{Type: ReleaseAck, Claim: m.Claim, Inc: a.inc})
}

// onResyncClaim rebuilds one committed reservation from a driver's RESYNC
// answer. Rebuilds are idempotent (duplicate answers dedup on claim ID),
// tombstone-checked (a claim resolved since the resync must not be
// resurrected by a delayed duplicate), capacity-bounded, and — for bound
// claims — cross-checked against the executor's running attempts. Any
// refusal NACKs so the driver finishes the claim and places elsewhere.
func (a *Agent) onResyncClaim(from string, m Message) {
	if m.Inc != a.inc {
		return // an answer meant for a previous incarnation's resync
	}
	if _, ok := a.claims[m.Claim]; ok {
		return // duplicate answer: the claim is already rebuilt
	}
	if _, dead := a.tombstones[m.Claim]; dead {
		return // resolved since the resync; a dead ID stays dead
	}
	if m.Slots <= 0 || a.Capacity-a.reserved < m.Slots {
		a.plane.Send(a.Name, from, Message{Type: CommitNack, Claim: m.Claim, Inc: a.inc})
		return
	}
	if m.Bound && a.TaskRunning != nil && !a.TaskRunning(m.Task) {
		// The driver says the claim backs a live attempt, but the executor
		// runs no such task: the attempt died while the agent was down.
		// Refuse so the driver releases instead of leaking a reservation
		// with nothing behind it.
		a.plane.Send(a.Name, from, Message{Type: CommitNack, Claim: m.Claim, Inc: a.inc})
		return
	}
	// Rebuilt claims are committed — no expiry timer; only an explicit
	// RELEASE/ABORT frees them, exactly like a claim committed normally.
	c := &agentClaim{id: m.Claim, driver: from, slots: m.Slots, committed: true}
	a.claims[c.id] = c
	a.reserve(c.slots)
	a.Rebuilt++
	a.Commits++
}

func (a *Agent) onResyncEnd(from string, m Message) {
	if m.Inc != a.inc || !a.resyncing || !a.resyncWait[from] {
		return
	}
	delete(a.resyncWait, from)
	a.resyncTimers[from].Cancel()
	if len(a.resyncWait) == 0 {
		a.finishResync()
	}
}

// CheckEndState appends a violation per leaked resource: at quiesce every
// claim must be gone and every slot free.
func (a *Agent) CheckEndState() {
	if a.reserved != 0 {
		a.violate("%d slots still reserved at end of run", a.reserved)
	}
	if len(a.claims) != 0 {
		ids := make([]string, 0, len(a.claims))
		for id := range a.claims {
			ids = append(ids, id.String())
		}
		sort.Strings(ids)
		a.violate("%d live claims at end of run: %v", len(a.claims), ids)
	}
}
