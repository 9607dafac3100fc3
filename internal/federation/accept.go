package federation

import (
	"fmt"
	"sort"

	"rupam/internal/simx"
)

// This file is the protocol's table-driven acceptance battery: each
// scenario scripts one message interleaving against a live Agent —
// including the pathological ones (late commits, duplicates, verdicts
// racing aborts, a proposer dying mid-protocol, the agent itself crashing
// amnesiac mid-handshake) — and asserts both the
// exact reply sequence each driver endpoint observes and the agent's
// final accounting. The tables run standalone as unit tests and again
// inside the chaos soak, so a protocol regression fails fast in both.

// AcceptStep scripts one driver-originated message at a virtual time, or
// — when Op is set — one agent lifecycle action instead.
type AcceptStep struct {
	At   float64
	From string // sending driver endpoint, e.g. "driver:0"
	Msg  Message
	// Op, when non-empty, makes this step a lifecycle action on the agent
	// rather than a message: "crash" calls Agent.Crash, "restart" calls
	// Agent.Restart. From and Msg are ignored.
	Op string
}

// AcceptScenario is one scripted interleaving and its expected outcome.
type AcceptScenario struct {
	Name string
	// Capacity is the agent's slot count (default 2).
	Capacity int
	// Steps run in At order over a fault-free plane with default latency.
	Steps []AcceptStep
	// Drivers, when non-empty, is installed as the agent's RESYNC broadcast
	// list (scenarios that script the restart handshake need the agent to
	// know whom to ask; the default empty list closes the resync instantly).
	Drivers []string
	// Replies is the expected reply sequence per driver endpoint, rendered
	// "TYPE claim" in delivery order.
	Replies map[string][]string
	// Reserved and Live are the agent's expected end state.
	Reserved int
	Live     int
	// Expiries/Rejects/Commits are expected agent counters (checked as
	// given; negative means don't care).
	Expiries int
	Rejects  int
	Commits  int
}

// AcceptanceScenarios returns the protocol acceptance battery. Times are
// chosen against the protocol constants (msgLatency 0.002, acceptTTL 2).
func AcceptanceScenarios() []AcceptScenario {
	d0, d1 := "driver:0", "driver:1"
	c01 := ClaimID{Driver: 0, Seq: 1}
	c11 := ClaimID{Driver: 1, Seq: 1}
	return []AcceptScenario{
		{
			// The driver's retransmit timeout fires before the ACCEPT
			// arrives; by the time the driver acts on anything the accept
			// TTL has lapsed, so its late COMMIT must be refused — the
			// claim ID is dead and the slots are already back in the pool.
			Name:     "accept-after-timeout-late-commit",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 2.5, From: d0, Msg: Message{Type: Commit, Claim: c01}},
			},
			Replies:  map[string][]string{d0: {"ACCEPT d0:1", "COMMIT_NACK d0:1"}},
			Reserved: 0, Live: 0, Expiries: 1, Rejects: 0, Commits: 0,
		},
		{
			// A duplicated COMMIT (transport dup or retransmit) must re-ack
			// without double-reserving: one claim, one reservation, two
			// acks.
			Name:     "duplicate-commit-single-reservation",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.1, From: d0, Msg: Message{Type: Commit, Claim: c01}},
				{At: 0.2, From: d0, Msg: Message{Type: Commit, Claim: c01}},
			},
			Replies:  map[string][]string{d0: {"ACCEPT d0:1", "COMMIT_ACK d0:1", "COMMIT_ACK d0:1"}},
			Reserved: 1, Live: 1, Expiries: 0, Rejects: 0, Commits: 1,
		},
		{
			// A duplicated PROPOSE of a live claim replays the accept
			// verbatim instead of double-reserving.
			Name:     "duplicate-propose-replays-accept",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.1, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.3, From: d0, Msg: Message{Type: Abort, Claim: c01}},
			},
			Replies:  map[string][]string{d0: {"ACCEPT d0:1", "ACCEPT d0:1", "ABORT_ACK d0:1"}},
			Reserved: 0, Live: 0, Expiries: 0, Rejects: 0, Commits: 0,
		},
		{
			// Arbitration: the node is full with driver 1's uncommitted
			// claim when lower-ID driver 0 proposes. Driver 1 is evicted
			// (REJECT) — and its own ABORT races the eviction. The abort of
			// an already-evicted claim must still ack without double-freeing
			// the slot driver 0 now holds.
			Name:     "reject-racing-abort-no-double-free",
			Capacity: 1,
			Steps: []AcceptStep{
				{At: 0, From: d1, Msg: Message{Type: Propose, Claim: c11, Task: 9, Slots: 1}},
				{At: 0.1, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.102, From: d1, Msg: Message{Type: Abort, Claim: c11}},
				{At: 0.2, From: d0, Msg: Message{Type: Commit, Claim: c01}},
			},
			Replies: map[string][]string{
				d0: {"ACCEPT d0:1", "COMMIT_ACK d0:1"},
				d1: {"ACCEPT d1:1", "REJECT d1:1", "ABORT_ACK d1:1"},
			},
			Reserved: 1, Live: 1, Expiries: 0, Rejects: 0, Commits: 1,
		},
		{
			// Arbitration the other way: the incumbent holds the lower ID,
			// so the newcomer is refused outright and told when to retry.
			Name:     "higher-id-loses-arbitration",
			Capacity: 1,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.1, From: d1, Msg: Message{Type: Propose, Claim: c11, Task: 9, Slots: 1}},
				{At: 0.3, From: d0, Msg: Message{Type: Release, Claim: c01}},
			},
			Replies: map[string][]string{
				d0: {"ACCEPT d0:1", "RELEASE_ACK d0:1"},
				d1: {"REJECT d1:1"},
			},
			Reserved: 0, Live: 0, Expiries: 0, Rejects: 1, Commits: 0,
		},
		{
			// The proposer crashes between PROPOSE and COMMIT: nobody ever
			// commits or aborts the accepted claim. The agent's TTL must
			// return the slots on its own — the crashed driver leaks
			// nothing.
			Name:     "crash-between-propose-and-commit-expires",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
			},
			Replies:  map[string][]string{d0: {"ACCEPT d0:1"}},
			Reserved: 0, Live: 0, Expiries: 1, Rejects: 0, Commits: 0,
		},
		{
			// A COMMIT for a claim the agent never heard of (its PROPOSE
			// was dropped) must be refused, not silently reserved.
			Name:     "commit-unknown-claim-nacked",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Commit, Claim: c01}},
			},
			Replies:  map[string][]string{d0: {"COMMIT_NACK d0:1"}},
			Reserved: 0, Live: 0, Expiries: 0, Rejects: 0, Commits: 0,
		},
		{
			// A tombstoned claim ID is never resurrected: once expired, a
			// stale retransmitted PROPOSE of the same ID gets REJECT, and a
			// fresh ID from the same driver succeeds.
			Name:     "tombstoned-id-stays-dead",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 2.5, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 2.6, From: d0, Msg: Message{Type: Propose, Claim: ClaimID{Driver: 0, Seq: 2}, Task: 7, Slots: 1}},
				{At: 2.8, From: d0, Msg: Message{Type: Abort, Claim: ClaimID{Driver: 0, Seq: 2}}},
			},
			Replies:  map[string][]string{d0: {"ACCEPT d0:1", "REJECT d0:1", "ACCEPT d0:2", "ABORT_ACK d0:2"}},
			Reserved: 0, Live: 0, Expiries: 1, Rejects: 0, Commits: 0,
		},
		{
			// The agent crashes between ACCEPT and COMMIT: the crash wiped
			// the accepted claim, so the driver's COMMIT — stamped with the
			// dead incarnation — must be NACKed, not honored against state
			// that no longer exists. The stale refusal is not a protocol
			// Reject (no tombstone, Rejects stays 0).
			Name:     "agent-crash-between-accept-and-commit",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.05, Op: "crash"},
				{At: 0.1, Op: "restart"},
				{At: 0.2, From: d0, Msg: Message{Type: Commit, Claim: c01}},
			},
			Replies:  map[string][]string{d0: {"ACCEPT d0:1", "COMMIT_NACK d0:1"}},
			Reserved: 0, Live: 0, Expiries: 0, Rejects: 0, Commits: 0,
		},
		{
			// The agent crashes after COMMIT but before the driver sees the
			// COMMIT_ACK. The driver's retransmitted COMMIT carries the old
			// incarnation and is NACKed — the reservation it pinned died with
			// the daemon — so the driver gives up the ID and runs a fresh
			// propose/commit cycle under the new incarnation.
			Name:     "agent-crash-after-commit-before-ack",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.1, From: d0, Msg: Message{Type: Commit, Claim: c01}},
				{At: 0.2, Op: "crash"},
				{At: 0.3, Op: "restart"},
				{At: 0.4, From: d0, Msg: Message{Type: Commit, Claim: c01}},
				{At: 0.5, From: d0, Msg: Message{Type: Propose, Claim: ClaimID{Driver: 0, Seq: 2}, Task: 7, Slots: 1, Inc: 1}},
				{At: 0.6, From: d0, Msg: Message{Type: Commit, Claim: ClaimID{Driver: 0, Seq: 2}, Inc: 1}},
			},
			Replies: map[string][]string{d0: {
				"ACCEPT d0:1", "COMMIT_ACK d0:1", "COMMIT_NACK d0:1", "ACCEPT d0:2", "COMMIT_ACK d0:2",
			}},
			Reserved: 1, Live: 1, Expiries: 0, Rejects: 0, Commits: 2,
		},
		{
			// A restart races a duplicate PROPOSE from before the crash: the
			// duplicate carries incarnation 0 against the restarted agent's
			// incarnation 1, so it is fenced off with a REJECT that never
			// tombstones (Rejects stays 0) — while a fresh proposal under the
			// new incarnation sails through.
			Name:     "restart-racing-duplicate-propose",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.05, Op: "crash"},
				{At: 0.1, Op: "restart"},
				{At: 0.2, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.3, From: d0, Msg: Message{Type: Propose, Claim: ClaimID{Driver: 0, Seq: 2}, Task: 7, Slots: 1, Inc: 1}},
				{At: 0.4, From: d0, Msg: Message{Type: Abort, Claim: ClaimID{Driver: 0, Seq: 2}, Inc: 1}},
			},
			Replies: map[string][]string{d0: {
				"ACCEPT d0:1", "REJECT d0:1", "ACCEPT d0:2", "ABORT_ACK d0:2",
			}},
			Reserved: 0, Live: 0, Expiries: 0, Rejects: 0, Commits: 0,
		},
		{
			// The double-reserve trap the incarnation fence exists for: a
			// COMMIT stamped before the crash arrives after the restarted
			// agent has already re-granted the node's full capacity to a new
			// claim. Honoring it would push reserved past capacity; the fence
			// NACKs it and the reservation count never moves.
			Name:     "pre-incarnation-stale-commit-no-double-reserve",
			Capacity: 2,
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.05, Op: "crash"},
				{At: 0.1, Op: "restart"},
				{At: 0.2, From: d0, Msg: Message{Type: Propose, Claim: ClaimID{Driver: 0, Seq: 2}, Task: 8, Slots: 2, Inc: 1}},
				{At: 0.3, From: d0, Msg: Message{Type: Commit, Claim: ClaimID{Driver: 0, Seq: 2}, Inc: 1}},
				{At: 0.4, From: d0, Msg: Message{Type: Commit, Claim: c01}},
			},
			Replies: map[string][]string{d0: {
				"ACCEPT d0:1", "ACCEPT d0:2", "COMMIT_ACK d0:2", "COMMIT_NACK d0:1",
			}},
			Reserved: 2, Live: 1, Expiries: 0, Rejects: 0, Commits: 1,
		},
		{
			// The RESYNC handshake end to end: a committed claim survives the
			// agent's crash because the driver still holds it — the restarted
			// agent broadcasts RESYNC, the driver answers with the claim, and
			// the reservation is rebuilt (counted as a commit) and later
			// released normally.
			Name:     "resync-rebuilds-committed-claim",
			Capacity: 2,
			Drivers:  []string{d0},
			Steps: []AcceptStep{
				{At: 0, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1}},
				{At: 0.05, From: d0, Msg: Message{Type: Commit, Claim: c01}},
				{At: 0.1, Op: "crash"},
				{At: 0.2, Op: "restart"},
				{At: 0.25, From: d0, Msg: Message{Type: ResyncClaim, Claim: c01, Task: 7, Slots: 1, Inc: 1}},
				{At: 0.3, From: d0, Msg: Message{Type: ResyncEnd, Inc: 1}},
				{At: 0.5, From: d0, Msg: Message{Type: Release, Claim: c01, Inc: 1}},
			},
			Replies: map[string][]string{d0: {
				"ACCEPT d0:1", "COMMIT_ACK d0:1", "RESYNC d0:0", "RELEASE_ACK d0:1",
			}},
			Reserved: 0, Live: 0, Expiries: 0, Rejects: 0, Commits: 2,
		},
		{
			// A driver that never answers the RESYNC: the agent retransmits
			// maxRetries times, refuses proposals while the handshake is open
			// (with a retry hint, not a tombstoning reject), and opens for
			// business when the resync deadline lapses.
			Name:     "propose-during-resync-refused",
			Capacity: 2,
			Drivers:  []string{d1},
			Steps: []AcceptStep{
				{At: 0.1, Op: "crash"},
				{At: 0.2, Op: "restart"},
				{At: 0.5, From: d0, Msg: Message{Type: Propose, Claim: c01, Task: 7, Slots: 1, Inc: 1}},
				{At: 4.5, From: d0, Msg: Message{Type: Propose, Claim: ClaimID{Driver: 0, Seq: 2}, Task: 7, Slots: 1, Inc: 1}},
			},
			Replies: map[string][]string{
				d0: {"REJECT d0:1", "ACCEPT d0:2"},
				d1: {"RESYNC d0:0", "RESYNC d0:0", "RESYNC d0:0", "RESYNC d0:0", "RESYNC d0:0"},
			},
			Reserved: 0, Live: 0, Expiries: 1, Rejects: 0, Commits: 0,
		},
	}
}

// acceptRun is one scenario wired onto a fresh engine: the agent under
// test on a fault-free plane, a recording handler per driver endpoint and
// every step scheduled. Running the engine plays the scenario.
type acceptRun struct {
	eng   *simx.Engine
	plane *Plane
	agent *Agent
	eps   []string            // driver endpoints, sorted
	got   map[string][]string // replies per endpoint, "TYPE claim" in delivery order
	fails []string            // invariant violations the agent reported
}

func newAcceptRun(s AcceptScenario) *acceptRun {
	capacity := s.Capacity
	if capacity == 0 {
		capacity = 2
	}
	r := &acceptRun{eng: simx.NewEngine(), got: make(map[string][]string)}
	r.plane = NewPlane(r.eng, 1)
	r.agent = NewAgent(r.eng, r.plane, "node1", capacity, func(v string) {
		r.fails = append(r.fails, "violation: "+v)
	})
	if len(s.Drivers) > 0 {
		r.agent.SetDrivers(s.Drivers)
	}

	endpoints := map[string]bool{}
	for _, st := range s.Steps {
		if st.From != "" {
			endpoints[st.From] = true
		}
	}
	for _, ep := range s.Drivers {
		endpoints[ep] = true
	}
	for ep := range s.Replies {
		endpoints[ep] = true
	}
	for ep := range endpoints {
		r.eps = append(r.eps, ep)
	}
	sort.Strings(r.eps)
	for _, ep := range r.eps {
		ep := ep
		r.plane.Handle(ep, func(from string, m Message) {
			r.got[ep] = append(r.got[ep], fmt.Sprintf("%s %s", m.Type, m.Claim))
		})
	}

	for _, st := range s.Steps {
		st := st
		switch st.Op {
		case "crash":
			r.eng.At(st.At, r.agent.Crash)
		case "restart":
			r.eng.At(st.At, r.agent.Restart)
		default:
			r.eng.At(st.At, func() { r.plane.Send(st.From, r.agent.Name, st.Msg) })
		}
	}
	return r
}

// RunAcceptScenario executes one scenario on a fresh engine and returns
// the list of expectation failures (empty means pass).
func RunAcceptScenario(s AcceptScenario) []string {
	r := newAcceptRun(s)
	r.eng.Run()
	fails, agent := r.fails, r.agent
	for _, ep := range r.eps {
		want := s.Replies[ep]
		if fmt.Sprint(r.got[ep]) != fmt.Sprint(want) {
			fails = append(fails, fmt.Sprintf("%s replies: got %v, want %v", ep, r.got[ep], want))
		}
	}
	if agent.Reserved() != s.Reserved {
		fails = append(fails, fmt.Sprintf("reserved: got %d, want %d", agent.Reserved(), s.Reserved))
	}
	if agent.LiveClaims() != s.Live {
		fails = append(fails, fmt.Sprintf("live claims: got %d, want %d", agent.LiveClaims(), s.Live))
	}
	if agent.Expiries != s.Expiries {
		fails = append(fails, fmt.Sprintf("expiries: got %d, want %d", agent.Expiries, s.Expiries))
	}
	if agent.Rejects != s.Rejects {
		fails = append(fails, fmt.Sprintf("rejects: got %d, want %d", agent.Rejects, s.Rejects))
	}
	if agent.Commits != s.Commits {
		fails = append(fails, fmt.Sprintf("commits: got %d, want %d", agent.Commits, s.Commits))
	}
	return fails
}
