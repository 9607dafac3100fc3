// Package federation turns the simulator's single recoverable driver into
// a sharded scheduling plane: several cooperating drivers place tasks onto
// one shared cluster with no central Launch path. Each node's core slots
// are owned by a per-node Agent state machine; drivers acquire them
// through an explicit two-phase placement commit — PROPOSE, ACCEPT/REJECT
// with deterministic lowest-(driver,seq)-wins arbitration, COMMIT/ABORT —
// carried over an unreliable control Plane that can drop, duplicate,
// delay and reorder messages. Every protocol transition is appended to
// the owning application's write-ahead log, so the WAL replay that
// rebuilds a crashed driver's scheduler state also rebuilds its protocol
// state: claims still live in the fold after a crash are exactly the ones
// the restarted driver must re-abort or re-release, and agent-side accept
// expiry guarantees that claims a dead driver never committed return to
// the pool on their own. Agents are a fault domain too: a crashed agent
// loses every claim, timer and tombstone, and on restart it bumps its
// incarnation, refuses pre-crash PROPOSE/COMMITs, and rebuilds surviving
// reservations from the drivers' answers to its RESYNC broadcast.
package federation

import (
	"fmt"
	"strconv"
)

// ClaimID names one placement claim globally: the proposing driver and
// its per-driver proposal sequence number. IDs totally order claims; the
// arbitration rule is that the *lowest* ID wins a slot conflict, so older
// proposals from lower-numbered drivers are never starved by newer ones.
type ClaimID struct {
	Driver int
	Seq    uint64
}

// String renders the ID in its WAL key form, "d<driver>:<seq>".
func (id ClaimID) String() string {
	var buf [48]byte
	b := append(buf[:0], 'd')
	b = strconv.AppendInt(b, int64(id.Driver), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, id.Seq, 10)
	return string(b)
}

// Less is the deterministic arbitration order: lowest driver ID first,
// then lowest sequence.
func (id ClaimID) Less(o ClaimID) bool {
	if id.Driver != o.Driver {
		return id.Driver < o.Driver
	}
	return id.Seq < o.Seq
}

// MsgType enumerates the placement-protocol message vocabulary.
type MsgType int

// Protocol messages. Drivers send PROPOSE/COMMIT/ABORT/RELEASE; agents
// answer ACCEPT/REJECT/COMMIT_ACK/COMMIT_NACK/ABORT_ACK/RELEASE_ACK.
const (
	// Propose asks the node's agent to reserve Slots cores.
	Propose MsgType = iota
	// Accept grants the reservation for acceptTTL; an uncommitted claim
	// past that deadline is unilaterally returned to the pool by the
	// agent's own timer.
	Accept
	// Reject refuses the claim (capacity, arbitration loss, or a
	// tombstoned claim ID); RetryAfter hints when to try this node again.
	Reject
	// Commit pins an accepted claim: the slots stay reserved until the
	// driver releases them, surviving any driver crash.
	Commit
	// CommitAck confirms the commit took effect (idempotent).
	CommitAck
	// CommitNack refuses a commit of a claim the agent no longer holds
	// (expired or evicted) — the driver must re-propose under a new ID.
	CommitNack
	// Abort cancels a claim in any live state (idempotent).
	Abort
	// AbortAck confirms the claim is gone.
	AbortAck
	// Release frees a committed claim's slots (the attempt ended).
	Release
	// ReleaseAck confirms the release took effect.
	ReleaseAck
	// Resync is broadcast by a restarted agent to every driver: "I am back
	// under incarnation Inc with no memory — tell me what I owe you."
	// Drivers answer with their view of the claims they hold on the node.
	Resync
	// ResyncClaim is one driver-side answer: a committed claim the driver
	// still holds on the restarting node. Bound marks it as backing a
	// launched attempt (the agent cross-checks those against the executor's
	// running set before rebuilding the reservation).
	ResyncClaim
	// ResyncEnd closes one driver's resync answer; once every driver has
	// answered (or the resync deadline lapses) the agent accepts proposals
	// again.
	ResyncEnd
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case Propose:
		return "PROPOSE"
	case Accept:
		return "ACCEPT"
	case Reject:
		return "REJECT"
	case Commit:
		return "COMMIT"
	case CommitAck:
		return "COMMIT_ACK"
	case CommitNack:
		return "COMMIT_NACK"
	case Abort:
		return "ABORT"
	case AbortAck:
		return "ABORT_ACK"
	case Release:
		return "RELEASE"
	case ReleaseAck:
		return "RELEASE_ACK"
	case Resync:
		return "RESYNC"
	case ResyncClaim:
		return "RESYNC_CLAIM"
	case ResyncEnd:
		return "RESYNC_END"
	default:
		return fmt.Sprintf("federation.MsgType(%d)", int(t))
	}
}

// Message is one protocol datagram. Every message names its claim, so
// duplicated and reordered deliveries dedup on (Type, Claim) alone.
type Message struct {
	Type  MsgType
	Claim ClaimID
	// Slots is the core count a PROPOSE or RESYNC_CLAIM reserves. Task is
	// set only on RESYNC_CLAIM: the task a bound claim backs, which the
	// agent checks against its executor.
	Task  int
	Slots int
	// RetryAfter is a REJECT's backoff hint: the absolute virtual time
	// before which the driver should not re-propose on this node.
	RetryAfter float64
	// Inc is an incarnation number: agents count their crashes (boot is
	// incarnation 0) and stamp every message they send with the current
	// value; drivers stamp PROPOSE/COMMIT with their last-known view of the
	// target agent's incarnation. An agent refuses PROPOSE/COMMIT carrying
	// a foreign incarnation, fencing off messages that predate its crash —
	// a stale COMMIT from before the wipe must not double-reserve slots.
	Inc uint64
	// Bound marks a RESYNC_CLAIM as backing a launched attempt rather than
	// a committed-but-unused reservation.
	Bound bool
}

// The placement protocol's fixed timing.
const (
	// msgLatency is the one-way control-plane message latency in seconds.
	msgLatency float64 = 0.002
	// dispatchCost is the serial CPU time a driver spends per protocol
	// action — the per-task dispatch overhead that caps a centralized
	// scheduler, here paid per driver so placement throughput scales with
	// driver count.
	dispatchCost float64 = 0.001
	// acceptTTL is the agent-side lifetime of an accepted, uncommitted
	// claim; past it the agent frees the slots and tombstones the claim.
	// This is what unsticks slots whose proposing driver died before
	// committing.
	acceptTTL float64 = 2
	// retryTimeout is the base retransmit timeout; try i of a cycle waits
	// retryTimeout×i. It doubles as the agent's reject-backoff hint.
	retryTimeout float64 = 0.25
	// maxRetries bounds sends per retransmit cycle. Propose cycles give
	// up for good (the accept TTL cleans up any orphan grant); commit
	// cycles fall back to an abort; abort/release cycles re-arm with a
	// growing pause until acknowledged — those must eventually land or
	// slots would leak.
	maxRetries = 5
	// staleClaimTTL releases a committed claim the scheduler never used
	// (its task got placed elsewhere or finished) after this long.
	staleClaimTTL float64 = 1.5
	// sweepInterval is the period of the driver's reconcile sweep, which
	// releases bound claims whose attempt vanished through a silent-kill
	// path such as a job abort and reconciles claims orphaned by an agent
	// incarnation change.
	sweepInterval float64 = 2
	// resyncTimeout is how long a restarted agent waits for the drivers'
	// RESYNC answers before accepting proposals again; a crashed driver
	// cannot answer, so the handshake must not wait forever. It also serves
	// as the reject-backoff hint sent to proposals arriving mid-resync
	// (comfortably past a full resync retransmit cycle).
	resyncTimeout float64 = 4
)
