package federation

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// claimState is a driver-side claim's lifecycle position.
type claimState int

const (
	csProposing  claimState = iota // PROPOSE sent, awaiting ACCEPT/REJECT
	csCommitting                   // ACCEPT received (WAL: committed), COMMIT in flight
	csReady                        // COMMIT_ACK received; the scheduler may launch
	csBound                        // the task attempt launched on the claim
	csReleasing                    // RELEASE in flight (attempt over / claim stale)
	csAborting                     // ABORT in flight (reject path or recovery)
)

func (s claimState) String() string {
	switch s {
	case csProposing:
		return "proposing"
	case csCommitting:
		return "committing"
	case csReady:
		return "ready"
	case csBound:
		return "bound"
	case csReleasing:
		return "releasing"
	case csAborting:
		return "aborting"
	}
	return fmt.Sprintf("claimState(%d)", int(s))
}

// fclaim is one driver-side placement claim. Build it with newClaim.
type fclaim struct {
	id    ClaimID
	key   string // id.String(), the claim's WAL key, formatted once
	app   *fedApp
	task  *task.Task
	node  string
	slots int
	state claimState
	// inc is the agent incarnation this claim was last negotiated with;
	// claims whose incarnation falls behind the agent's are orphans — the
	// state they assume died in the agent's crash.
	inc uint64

	attempts int // sends so far in the current retransmit cycle
	cycle    int // completed cycles (abort/release re-arm with growing pauses)

	// timer is the claim's retransmit, re-arm or stale-claim timer. Every
	// assignment to it goes through arm, which cancels the previous timer
	// first, so a claim has at most one live timer: onTimer, bound once in
	// newClaim, reads what the live timer is for from timerKind and
	// pending, which arm set when it scheduled that timer.
	timer     simx.Timer
	timerKind claimTimer
	pending   MsgType // the message type the live timer retransmits
	onTimer   func()
}

// claimTimer says what a claim's live timer does when it fires.
type claimTimer int

const (
	timerRetransmit claimTimer = iota // the send of pending went unanswered
	timerRearm                        // a terminal cycle's pause is over: send pending again
	timerStale                        // a Ready claim the scheduler never used
)

// newClaim builds a claim negotiated with the node's last-known agent
// incarnation, formats its WAL key and binds its timer callback.
func (d *Driver) newClaim(id ClaimID, a *fedApp, t *task.Task, node string, slots int) *fclaim {
	c := &fclaim{id: id, key: id.String(), app: a, task: t, node: node, slots: slots,
		inc: d.agentInc[node]}
	c.onTimer = func() { d.onClaimTimer(c) }
	return c
}

// arm replaces the claim's live timer.
func (d *Driver) arm(c *fclaim, kind claimTimer, mt MsgType, delay float64) {
	c.timer.Cancel()
	c.timerKind, c.pending = kind, mt
	c.timer = d.eng.Schedule(delay, c.onTimer)
}

func (d *Driver) onClaimTimer(c *fclaim) {
	switch c.timerKind {
	case timerRetransmit:
		d.onTimeout(c, c.pending)
	case timerRearm:
		d.queueSend(c, c.pending)
	case timerStale:
		if cur, ok := d.claims[c.id]; ok && cur == c && c.state == csReady && !d.down {
			d.releaseClaim(c)
		}
	}
}

// fedApp couples one application runtime to its federated driver, and is
// the runtime's placement broker.
type fedApp struct {
	d        *Driver
	rt       *spark.Runtime
	wlog     *wal.Log
	taskByID map[int]*task.Task
	done     bool
}

// Driver is the federation side of one scheduler shard: it owns one or
// more application runtimes, arbitrates their placements through the
// agent protocol (one spark.PlacementBroker per app), and pays a
// serial dispatch cost per protocol action — the same per-task overhead
// that caps a centralized dispatch loop, now paid per shard so aggregate
// placement throughput scales with the driver count.
type Driver struct {
	ID   int
	Addr string

	eng   *simx.Engine
	plane *Plane

	apps []*fedApp
	seq  uint64

	claims         map[ClaimID]*fclaim
	byTask         map[int]*fclaim // the task's unbound claim (proposing|committing|ready)
	inflight       map[string]int  // live claims per node
	nodeCap        map[string]int
	noProposeUntil map[string]float64
	// agentInc is the last-known incarnation per agent, learned from reply
	// stamps and RESYNC broadcasts. Protocol memory: wiped by a driver
	// crash and re-learned from the agents' reply stamps.
	agentInc map[string]uint64
	// deadAgents fences nodes whose agent died for good (permanent node
	// loss, spot reclamation): no proposals, and claims there resolve
	// locally — no ack is ever coming. Unlike agentInc this survives a
	// driver crash: it models cluster-membership knowledge the recovered
	// driver re-fetches from the resource manager, not protocol state.
	// A RESYNC from the node lifts the fence.
	deadAgents map[string]bool

	down       bool
	gen        int // bumped at crash; invalidates queued dispatch actions
	busyUntil  float64
	sweepArmed bool
	// actions holds dispatch records whose event has fired, for reuse.
	actions []*dispatchAction

	// BusySeconds is the total serial dispatch time this driver spent;
	// max over drivers bounds the run's placement throughput.
	BusySeconds float64
	// Commits counts claims that reached Ready (committed placements).
	Commits int
	// Crashes/Recoveries count this driver's fault episodes.
	Crashes    int
	Recoveries int

	violation func(string)
}

// NewDriver creates driver id and registers it on the plane as
// "driver:<id>".
func NewDriver(eng *simx.Engine, plane *Plane, id int, nodeCap map[string]int, violation func(string)) *Driver {
	d := &Driver{
		ID:             id,
		Addr:           fmt.Sprintf("driver:%d", id),
		eng:            eng,
		plane:          plane,
		claims:         make(map[ClaimID]*fclaim),
		byTask:         make(map[int]*fclaim),
		inflight:       make(map[string]int),
		nodeCap:        nodeCap,
		noProposeUntil: make(map[string]float64),
		agentInc:       make(map[string]uint64),
		deadAgents:     make(map[string]bool),
		violation:      violation,
	}
	plane.Handle(d.Addr, d.onMessage)
	return d
}

func (d *Driver) violate(format string, args ...interface{}) {
	if d.violation != nil {
		d.violation(fmt.Sprintf("%s: %s", d.Addr, fmt.Sprintf(format, args...)))
	}
}

// Adopt attaches an application to this driver and returns the hooks its
// runtime must be built with: the driver brokers every placement, releases
// a claim when its attempt ends, refolds claims at driver recovery, and
// releases what is left when the application finishes, before done runs.
// Set the returned app's rt before starting the runtime.
func (d *Driver) Adopt(wlog *wal.Log, app *task.Application, done func()) (*fedApp, spark.Hooks) {
	a := &fedApp{d: d, wlog: wlog, taskByID: make(map[int]*task.Task)}
	for _, t := range app.AllTasks() {
		a.taskByID[t.ID] = t
	}
	d.apps = append(d.apps, a)
	return a, spark.Hooks{
		Broker:       a,
		AttemptEnded: d.onAttemptEnd,
		Recovered:    func(s *wal.State) { d.onAppRecovered(a, s) },
		Done:         func() { d.AppDone(a); done() },
	}
}

// AdmitPlacement implements spark.PlacementBroker.
func (a *fedApp) AdmitPlacement(t *task.Task, node string) bool {
	return a.d.admitPlacement(a, t, node)
}

// PlacementStarted implements spark.PlacementBroker.
func (a *fedApp) PlacementStarted(t *task.Task, node string) {
	a.d.placementStarted(a, t, node)
}

// LiveClaims returns the driver's current claim count (tests).
func (d *Driver) LiveClaims() int { return len(d.claims) }

// dispatchAction is one protocol action queued on the driver's dispatch
// loop: the send of a claim's current cycle (claim set) or the handling
// of one received message (claim nil). Records are pooled per driver and
// their fire func is bound once, when the record is first made.
type dispatchAction struct {
	d     *Driver
	gen   int // the driver's gen when queued; a crash since voids the action
	claim *fclaim
	mt    MsgType
	from  string
	m     Message
	fire  func()
}

// dispatch serializes a protocol action through the driver's single
// dispatch loop: each action starts when the previous one's cost is paid.
// This is the model's scalability story — the per-action cost is constant,
// so N drivers sustain N× the placement rate of one.
func (d *Driver) dispatch(c *fclaim, mt MsgType, from string, m Message) {
	if d.down {
		return
	}
	start := d.eng.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + dispatchCost
	d.BusySeconds += dispatchCost
	var act *dispatchAction
	if n := len(d.actions); n > 0 {
		act = d.actions[n-1]
		d.actions[n-1] = nil
		d.actions = d.actions[:n-1]
	} else {
		act = &dispatchAction{d: d}
		act.fire = act.run
	}
	act.gen, act.claim, act.mt, act.from, act.m = d.gen, c, mt, from, m
	d.eng.At(d.busyUntil, act.fire)
}

// queueSend queues the send of mt for the claim's current cycle.
func (d *Driver) queueSend(c *fclaim, mt MsgType) { d.dispatch(c, mt, "", Message{}) }

// run performs the action. The record goes back to the free list first,
// because sending and handling may queue further actions.
func (act *dispatchAction) run() {
	d, gen, c, mt, from, m := act.d, act.gen, act.claim, act.mt, act.from, act.m
	act.claim = nil
	d.actions = append(d.actions, act)
	if d.down || d.gen != gen {
		return
	}
	if c != nil {
		d.send(c, mt)
	} else {
		d.handle(from, m)
	}
}

// admitPlacement is the Launch-time arbitration gate. It returns true
// only when the task holds a Ready (committed) claim for exactly this
// node; anything else refuses the launch, usually after starting the
// claim machinery that will make a later scheduling round succeed.
func (d *Driver) admitPlacement(a *fedApp, t *task.Task, node string) bool {
	if d.down {
		return false
	}
	now := d.eng.Now()
	if c := d.byTask[t.ID]; c != nil {
		if c.node == node {
			return c.state == csReady // in-flight claims refuse until committed
		}
		// The task already holds a claim elsewhere. Refuse — chasing the
		// scheduler's per-round node preference would release and
		// re-propose every round (livelock); if the claimed node never
		// takes the task, the stale-claim TTL recycles the slots.
		return false
	}
	if d.deadAgents[node] {
		return false // the node's agent is gone for good; place elsewhere
	}
	if d.noProposeUntil[node] > now {
		return false
	}
	if cap := d.nodeCap[node]; cap > 0 && d.inflight[node] >= cap {
		return false // the node is fully claimed already
	}
	d.seq++
	c := d.newClaim(ClaimID{Driver: d.ID, Seq: d.seq}, a, t, node, 1)
	d.claims[c.id] = c
	d.byTask[t.ID] = c
	d.inflight[node]++
	a.wlog.Append(wal.Record{Kind: wal.KindClaimProposed, Key: c.key,
		Task: t.ID, Node: node, Slots: c.slots})
	d.queueSend(c, Propose)
	return false
}

// placementStarted binds the Ready claim the launch consumed. A launch
// with no Ready claim is a protocol violation — the exactly-once-launch
// invariant is enforced here, not inferred afterwards.
func (d *Driver) placementStarted(a *fedApp, t *task.Task, node string) {
	c := d.byTask[t.ID]
	if c == nil || c.state != csReady || c.node != node {
		d.violate("launch of task %d on %s without a ready claim (have %v)", t.ID, node, c)
		return
	}
	c.state = csBound
	c.timer.Cancel()
	delete(d.byTask, t.ID) // a bound claim no longer blocks new proposals
	a.wlog.Append(wal.Record{Kind: wal.KindClaimBound, Key: c.key})
	d.armSweep()
}

// onAttemptEnd releases the bound claim backing a finished attempt.
func (d *Driver) onAttemptEnd(t *task.Task, node string) {
	if c := d.boundClaim(t.ID, node); c != nil {
		d.releaseClaim(c)
	}
}

// boundClaim finds the (lowest-ID) bound claim for a task on a node.
func (d *Driver) boundClaim(taskID int, node string) *fclaim {
	var best *fclaim
	for _, c := range d.claims {
		if c.state == csBound && c.task.ID == taskID && c.node == node {
			if best == nil || c.id.Less(best.id) {
				best = c
			}
		}
	}
	return best
}

// releaseClaim moves a claim onto its terminal send cycle: RELEASE for
// claims the agent has committed, ABORT otherwise.
func (d *Driver) releaseClaim(c *fclaim) {
	if d.byTask[c.task.ID] == c {
		delete(d.byTask, c.task.ID)
	}
	if d.deadAgents[c.node] {
		// The agent died with its node: no ack is ever coming, and its
		// slot accounting is gone. Resolve locally instead of cycling.
		kind := wal.KindClaimAborted
		if c.state == csBound || c.state == csReleasing {
			kind = wal.KindClaimReleased
		}
		d.finishClaim(c, kind)
		return
	}
	switch c.state {
	case csReleasing, csAborting:
		// Already on a terminal cycle — and crucially, before this point
		// nothing may touch its retransmit timer: cancelling it here would
		// orphan the cycle mid-flight (no further send ever re-arms it)
		// and leak the reservation if the in-flight message is dropped.
		return
	}
	c.timer.Cancel()
	if c.state == csProposing {
		// No grant observed: give up the ID. If the agent did accept, its
		// TTL returns the slots; the tombstone makes any late COMMIT moot.
		d.finishClaim(c, wal.KindClaimAborted)
		return
	}
	c.state = csReleasing // csCommitting, csReady or csBound
	c.attempts, c.cycle = 0, 0
	d.queueSend(c, Release)
}

// abortClaim puts a claim on the ABORT cycle (recovery path).
func (d *Driver) abortClaim(c *fclaim) {
	if d.byTask[c.task.ID] == c {
		delete(d.byTask, c.task.ID)
	}
	if d.deadAgents[c.node] {
		d.finishClaim(c, wal.KindClaimAborted)
		return
	}
	if c.state == csAborting || c.state == csReleasing {
		return // terminal cycle in flight; leave its timer alone
	}
	c.timer.Cancel()
	c.state = csAborting
	c.attempts, c.cycle = 0, 0
	d.queueSend(c, Abort)
}

// finishClaim writes the claim's terminal WAL record and forgets it.
func (d *Driver) finishClaim(c *fclaim, kind string) {
	c.timer.Cancel()
	if d.byTask[c.task.ID] == c {
		delete(d.byTask, c.task.ID)
	}
	if _, ok := d.claims[c.id]; ok {
		delete(d.claims, c.id)
		d.inflight[c.node]--
		if d.inflight[c.node] < 0 {
			d.violate("inflight count for %s went negative", c.node)
		}
	}
	c.app.wlog.Append(wal.Record{Kind: kind, Key: c.key})
}

// send transmits the message type for the claim's current cycle and arms
// the retransmit timer. Propose cycles exhaust into a local abort (the
// agent's TTL cleans up any unobserved grant); commit cycles fall back to
// an explicit abort (the agent may hold a committed claim); abort and
// release cycles re-arm with a growing pause — they must land eventually
// or slots would leak, and fault windows are finite.
func (d *Driver) send(c *fclaim, mt MsgType) {
	if d.down {
		return
	}
	if cur, ok := d.claims[c.id]; !ok || cur != c {
		return // the claim resolved while this send was queued
	}
	switch {
	case mt == Propose && c.state != csProposing,
		mt == Commit && c.state != csCommitting,
		mt == Release && c.state != csReleasing,
		mt == Abort && c.state != csAborting:
		return // state moved on; the queued send is stale
	}
	m := Message{Type: mt, Claim: c.id, Inc: d.agentInc[c.node]}
	if mt == Propose {
		m.Slots = c.slots
		// A retransmitted PROPOSE is a fresh proposal to whatever
		// incarnation now runs the node.
		c.inc = m.Inc
	}
	d.plane.Send(d.Addr, c.node, m)
	c.attempts++
	d.arm(c, timerRetransmit, mt, retryTimeout*float64(c.attempts))
}

func (d *Driver) onTimeout(c *fclaim, mt MsgType) {
	if d.down {
		return
	}
	if cur, ok := d.claims[c.id]; !ok || cur != c {
		return
	}
	if c.attempts < maxRetries {
		d.queueSend(c, mt)
		return
	}
	switch mt {
	case Propose:
		// The node is unreachable (agent down or partitioned); give up the
		// ID and back the node off for a full accept-TTL so the scheduler
		// re-proposes elsewhere first instead of hammering a dead daemon.
		// Any grant in flight dies at the agent's TTL.
		if until := d.eng.Now() + acceptTTL; until > d.noProposeUntil[c.node] {
			d.noProposeUntil[c.node] = until
		}
		d.finishClaim(c, wal.KindClaimAborted)
	case Commit:
		// The agent may or may not hold the committed claim; only an
		// explicit acked abort resolves the ambiguity.
		d.abortClaim(c)
	case Abort, Release:
		// Must eventually land. Fresh cycle after a growing pause.
		c.cycle++
		shift := c.cycle
		if shift > 6 {
			shift = 6
		}
		c.attempts = 0
		d.arm(c, timerRearm, mt, retryTimeout*float64(int(1)<<shift))
	}
}

// onMessage is the driver's plane handler; every verdict pays the serial
// dispatch cost before taking effect.
func (d *Driver) onMessage(from string, m Message) { d.dispatch(nil, 0, from, m) }

func (d *Driver) handle(from string, m Message) {
	if m.Type == Resync {
		d.onResync(from, m)
		return
	}
	if m.Inc > d.agentInc[from] {
		// A reply stamped with an incarnation newer than our view: the
		// agent crashed and restarted behind our back (its RESYNC never
		// reached us, or we were down for it). Adopt the view and reconcile
		// the claims the old incarnation took with it.
		d.observeIncarnation(from, m.Inc, false)
	}
	c, ok := d.claims[m.Claim]
	if !ok {
		return // verdict for a claim we already resolved (dup or stale)
	}
	switch m.Type {
	case Accept:
		if c.state != csProposing {
			return // duplicate accept
		}
		c.state = csCommitting
		c.inc = m.Inc
		// Logged *before* the commit send: a crash from here on must
		// chase this claim, because the agent holds (or will hold) it
		// beyond any TTL once the commit lands.
		c.app.wlog.Append(wal.Record{Kind: wal.KindClaimCommitted, Key: c.key})
		c.attempts = 0
		d.send(c, Commit)
	case Reject:
		if c.state != csProposing {
			return // stale reject (e.g. raced our abort); the cycle resolves it
		}
		if m.RetryAfter > d.noProposeUntil[c.node] {
			d.noProposeUntil[c.node] = m.RetryAfter
		}
		// Terminal verdict: the agent tombstoned the ID, nothing to chase.
		d.finishClaim(c, wal.KindClaimAborted)
	case CommitAck:
		if c.state != csCommitting {
			return // duplicate ack
		}
		c.state = csReady
		d.Commits++
		// A Ready claim the scheduler never consumes is released after
		// the stale TTL so contended slots recirculate.
		d.arm(c, timerStale, 0, staleClaimTTL)
		// The slot is secured; let the owning app's scheduler retry the
		// placement it was refused.
		if !c.app.rt.Done() && !c.app.rt.Crashed() {
			c.app.rt.Scheduler().Schedule()
		}
	case CommitNack:
		switch c.state {
		case csCommitting:
			// The agent lost the claim (TTL, eviction, or a crash between
			// the accept and the commit): terminal, nothing to chase.
			d.finishClaim(c, wal.KindClaimAborted)
		case csReady:
			// A restarted agent refused to rebuild the reservation
			// (capacity, or a tombstone): the committed slots are gone.
			d.finishClaim(c, wal.KindClaimAborted)
		case csBound:
			// Refused rebuild of a bound claim: the attempt it backed died
			// while the agent was down, so there is nothing left to back.
			d.finishClaim(c, wal.KindClaimReleased)
		}
	case AbortAck:
		if c.state != csAborting {
			return
		}
		d.finishClaim(c, wal.KindClaimAborted)
	case ReleaseAck:
		if c.state != csReleasing {
			return
		}
		d.finishClaim(c, wal.KindClaimReleased)
	}
}

// onResync answers a restarted agent's RESYNC: adopt the new incarnation,
// reconcile local claim state with the wipe, and report every claim that
// should survive — bound claims backing running attempts and committed
// (ready) reservations the scheduler may still consume — then close with
// RESYNC_END. Re-answering a duplicate RESYNC is harmless: the agent
// dedups rebuilds on claim ID.
func (d *Driver) onResync(from string, m Message) {
	if m.Inc < d.agentInc[from] {
		return // a delayed broadcast from an incarnation already superseded
	}
	if m.Inc > d.agentInc[from] {
		d.observeIncarnation(from, m.Inc, true)
	}
	// The daemon is demonstrably back: lift any membership fence so the
	// scheduler may propose to the node again.
	delete(d.deadAgents, from)
	var report []*fclaim
	for _, c := range d.claims {
		if c.node == from && (c.state == csBound || c.state == csReady) && c.inc == m.Inc {
			report = append(report, c)
		}
	}
	sort.Slice(report, func(i, j int) bool { return report[i].id.Less(report[j].id) })
	for _, c := range report {
		d.plane.Send(d.Addr, from, Message{Type: ResyncClaim, Claim: c.id, Inc: m.Inc,
			Task: c.task.ID, Slots: c.slots, Bound: c.state == csBound})
	}
	d.plane.Send(d.Addr, from, Message{Type: ResyncEnd, Inc: m.Inc})
}

// observeIncarnation adopts a higher incarnation for the node's agent and
// reconciles the claims the old incarnation orphaned: its accepted and
// committed state died in the crash, so send cycles chasing it would spin
// forever. Bound and ready claims survive only when the observation came
// through a RESYNC — they are about to be reported and rebuilt; learned
// from a stray reply stamp instead, they run an explicit acked release
// cycle rather than resolving locally. The distinction matters after the
// *driver's* own crash: refolded claims carry a guessed incarnation
// (agentInc died with the process), so an apparent orphan may be a live
// claim the agent still holds under its current incarnation — negotiated
// after the agent's last crash, forgotten across the driver's. Only an
// acked RELEASE/ABORT (which agents honor regardless of incarnation)
// resolves both worlds without leaking the agent's slots. Bound attempts
// run on either way — only the daemon died, not the executor.
func (d *Driver) observeIncarnation(node string, inc uint64, viaResync bool) {
	d.agentInc[node] = inc
	var orphans []*fclaim
	for _, c := range d.claims {
		if c.node == node && c.inc < inc {
			orphans = append(orphans, c)
		}
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].id.Less(orphans[j].id) })
	for _, c := range orphans {
		c.inc = inc
		switch c.state {
		case csProposing:
			// The retransmit cycle re-proposes to the new incarnation.
		case csReady, csBound:
			if viaResync {
				continue // about to be reported and rebuilt
			}
			d.releaseClaim(c)
		case csCommitting:
			// The accept this commit chases either died in the agent's crash
			// or (post-driver-crash amnesia) never existed under the old
			// view; an acked abort resolves both without leaking.
			d.abortClaim(c)
		case csReleasing, csAborting:
			// Already on a terminal cycle; it re-arms until acked, and the
			// agent acks these regardless of incarnation.
		}
	}
}

// AgentDead tells the driver the node's agent died for good (the node was
// permanently lost or reclaimed): no restart, no resync, no ack is ever
// coming. Every claim on the node resolves locally — the agent's slot
// accounting died with it — and the node is fenced from proposals until a
// RESYNC proves a daemon is back. The fence is recorded even while the
// driver itself is down, so a recovered driver does not refold claims
// into ack cycles against a corpse.
func (d *Driver) AgentDead(node string) {
	d.deadAgents[node] = true
	if d.down {
		return // recovery consults deadAgents when refolding
	}
	var own []*fclaim
	for _, c := range d.claims {
		if c.node == node {
			own = append(own, c)
		}
	}
	sort.Slice(own, func(i, j int) bool { return own[i].id.Less(own[j].id) })
	for _, c := range own {
		d.releaseClaim(c) // dead-agent shortcut resolves locally by state
	}
}

// armSweep schedules the periodic reconcile that releases bound claims
// whose attempt vanished through a silent-kill path (job abort, zombie
// fencing). Re-arms itself only while bound claims remain.
func (d *Driver) armSweep() {
	if d.sweepArmed || d.down {
		return
	}
	d.sweepArmed = true
	d.eng.Schedule(sweepInterval, d.sweep)
}

func (d *Driver) sweep() {
	d.sweepArmed = false
	if d.down {
		return
	}
	var stale []*fclaim
	liveBound := 0
	for _, c := range d.claims {
		if c.inc < d.agentInc[c.node] && (c.state == csReady || c.state == csBound) {
			// Orphaned by an agent incarnation change that neither the
			// resync nor a reply stamp resolved (both answers lost): the
			// old incarnation's reservation is gone for good. The release
			// cycle resolves it — the new incarnation acks unknown claims.
			stale = append(stale, c)
			continue
		}
		if c.state != csBound {
			continue
		}
		if !d.attemptLive(c) {
			stale = append(stale, c)
			continue
		}
		liveBound++
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].id.Less(stale[j].id) })
	for _, c := range stale {
		d.releaseClaim(c)
	}
	if liveBound > 0 {
		d.armSweep()
	}
}

// attemptLive reports whether the claim's task still has a running
// attempt on the claim's node.
func (d *Driver) attemptLive(c *fclaim) bool {
	if c.app.rt.Crashed() {
		return true // unknowable mid-crash; recovery resolves it
	}
	for _, r := range c.app.rt.RunningAttempts(c.task) {
		if r.Metrics().Executor == c.node {
			return true
		}
	}
	return false
}

// AppDone releases every claim still held for the given app — the
// backstop for job aborts, which silently wipe the running-attempt set.
func (d *Driver) AppDone(a *fedApp) {
	a.done = true
	var own []*fclaim
	for _, c := range d.claims {
		if c.app == a {
			own = append(own, c)
		}
	}
	sort.Slice(own, func(i, j int) bool { return own[i].id.Less(own[j].id) })
	for _, c := range own {
		d.releaseClaim(c)
	}
}

// Crash takes the whole driver process down: every owned application's
// runtime crashes (buffering completions as usual), the plane drops
// messages addressed to the driver, and all in-memory protocol state
// vanishes — exactly what the WAL exists to reconstruct.
func (d *Driver) Crash(restartAfter float64) {
	if d.down {
		return
	}
	live := 0
	for _, a := range d.apps {
		if !a.done && !a.rt.Crashed() {
			live++
		}
	}
	if live == 0 {
		return
	}
	d.down = true
	d.gen++
	d.Crashes++
	d.plane.SetDown(d.Addr, true)
	for _, c := range d.claims {
		c.timer.Cancel()
	}
	d.claims = make(map[ClaimID]*fclaim)
	d.byTask = make(map[int]*fclaim)
	d.inflight = make(map[string]int)
	d.noProposeUntil = make(map[string]float64)
	// Process memory: incarnation views die with the process and are
	// re-learned from reply stamps. deadAgents deliberately survives (see
	// its field comment).
	d.agentInc = make(map[string]uint64)
	d.sweepArmed = false
	for _, a := range d.apps {
		if !a.done && !a.rt.Crashed() {
			a.rt.CrashDriver(restartAfter)
		}
	}
}

// onAppRecovered fires per owned runtime at the end of its WAL-driven
// recovery, with the state that recovery folded from the application's
// log. The first one brings the driver process back up; each one then
// refolds the fold's live claims into protocol state: proposed and
// committed claims are re-aborted (the safe resolution either side of the
// commit boundary), bound claims are kept only when the recovered runtime
// still runs the attempt, and released otherwise. The runtime's fold is
// current for claims: the application was crashed until its replay, and
// the driver wiped its claims at Crash, so no claim record of this
// application lands between the replay and this hook.
func (d *Driver) onAppRecovered(a *fedApp, st *wal.State) {
	if d.down {
		d.down = false
		d.busyUntil = d.eng.Now()
		d.plane.SetDown(d.Addr, false)
		d.Recoveries++
	}
	if st.ClaimSeq > d.seq {
		// Never reuse a claim ID across incarnations: agents tombstone
		// dead IDs, so reuse would make fresh proposals look stale.
		d.seq = st.ClaimSeq
	}
	keys := make([]string, 0, len(st.Claims))
	for k := range st.Claims {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		wc := st.Claims[k]
		id, ok := parseClaimID(k)
		if !ok || id.Driver != d.ID {
			d.violate("recovery folded foreign claim key %q", k)
			continue
		}
		if _, live := d.claims[id]; live {
			// Created after the driver came back up (a sibling app's
			// recovery revives the whole driver, and scheduling rounds can
			// propose for this app before its own fold runs). The claim is
			// live protocol state, not a crash orphan — leave it be.
			continue
		}
		t := a.taskByID[wc.Task]
		if t == nil {
			d.violate("recovery folded claim %s for unknown task %d", k, wc.Task)
			continue
		}
		c := d.newClaim(id, a, t, wc.Node, wc.Slots)
		d.claims[id] = c
		d.inflight[wc.Node]++
		switch wc.State {
		case "bound":
			if d.attemptAdopted(a, t, wc.Node) {
				// The attempt survived the crash and was re-adopted: the
				// claim keeps backing it and releases when it ends.
				c.state = csBound
				d.armSweep()
				continue
			}
			c.state = csBound // releaseClaim routes bound → RELEASE
			d.releaseClaim(c)
		case "committed":
			// Crash between ACCEPT and COMMIT_ACK: the agent may hold the
			// claim committed (our COMMIT landed) or uncommitted-and-
			// expired. An acked ABORT resolves both without leaking.
			c.state = csCommitting
			d.abortClaim(c)
		default: // "proposed"
			c.state = csProposing
			d.abortClaim(c)
		}
	}
}

// attemptAdopted reports whether the recovered runtime still runs an
// attempt of t on node (survivor adoption happens before the Recovered
// hook).
func (d *Driver) attemptAdopted(a *fedApp, t *task.Task, node string) bool {
	for _, r := range a.rt.RunningAttempts(t) {
		if r.Metrics().Executor == node {
			return true
		}
	}
	return false
}

// parseClaimID parses the WAL key form "d<driver>:<seq>".
func parseClaimID(s string) (ClaimID, bool) {
	if len(s) < 4 || s[0] != 'd' {
		return ClaimID{}, false
	}
	i := strings.IndexByte(s, ':')
	if i < 2 {
		return ClaimID{}, false
	}
	drv, err1 := strconv.Atoi(s[1:i])
	seq, err2 := strconv.ParseUint(s[i+1:], 10, 64)
	if err1 != nil || err2 != nil {
		return ClaimID{}, false
	}
	return ClaimID{Driver: drv, Seq: seq}, true
}
