package streaming

// Operator migration: the drain → state-handoff → resume protocol that
// moves one operator between hosts without losing or double-counting a
// record.
//
// Graceful path (spot notice, gray degradation, overload, forced):
//
//  1. pause — every in-channel stops granting emission credit (free()==0),
//     so upstream operators throttle; backpressure propagates source-ward
//     while the wire keeps delivering the already-queued backlog to the
//     old host;
//  2. drain — the operator keeps processing on the old host until its
//     in-queues are empty, so every record it ever consumed is consumed
//     exactly once, in place;
//  3. handoff — the operator's state (StateBytes) ships to the new host
//     as an ordinary netsim flow, contending with everything else;
//  4. rebind — out-channel wires are Redirected to source from the new
//     host (netsim.Redirect on a never-completing flow: remaining bytes
//     preserved, destination and callback carried over); in-channel wires
//     are cancelled and reopen lazily toward the new host;
//  5. resume — in-channels unpause, upstream credit reappears.
//
// Emergency path (host died before or during a drain): the backlog is
// still owned by the channels — records an operator never consumed are
// retained upstream of it by construction — so nothing is lost. The state
// is rehydrated from a deterministic buddy replica (lowest-indexed live
// node) and the drain step is skipped: the queued records simply arrive
// at the new host once the wires re-home. Exactly-once holds because
// consumption only ever happens out of the channel's arrived prefix, and
// a record leaves the queue at most once no matter how many times the
// wires re-home.

import (
	"fmt"
)

// MigrationRecord is the audit row for one completed operator migration.
type MigrationRecord struct {
	Op        int     `json:"op"`
	OpName    string  `json:"op_name"`
	From      string  `json:"from"`
	To        string  `json:"to"`
	Reason    string  `json:"reason"`
	Start     float64 `json:"start"`
	HandoffAt float64 `json:"handoff_at"`
	End       float64 `json:"end"`
	Emergency bool    `json:"emergency"`
}

// migration is one in-flight operator move.
type migration struct {
	op        int
	from, to  string
	reason    string
	start     float64
	handoffAt float64
	emergency bool
	shipping  bool
}

// streamSpanAt forwards to the collector (nil-safe).
func (r *Runtime) streamSpanAt(node, op, phase, detail string, start, end float64) {
	r.col.StreamSpanAt(node, op, phase, detail, start, end)
}

// startMigration begins a graceful migration of the operator to the given
// node ("" lets the placer pick). Returns false when no target exists.
func (r *Runtime) startMigration(opID int, to, reason string, emergency bool) bool {
	if r.migrating[opID] != nil {
		return false
	}
	o := r.ops[opID]
	from := r.opNode[opID]
	if to == "" {
		ex := r.liveExclusions()
		ex[from] = true
		to = r.placer.Pick(r.topo, o, r.nodes, r.opNode, ex)
	}
	if to == "" || to == from || !r.nodeAlive(to) {
		return false
	}
	now := r.eng.Now()
	m := &migration{op: opID, from: from, to: to, reason: reason,
		start: now, emergency: emergency}
	r.migrating[opID] = m
	if !emergency {
		for _, ch := range r.inChans[opID] {
			ch.paused = true
		}
		if r.cfg.Trace != nil {
			r.trace("migrating %s (%s): %s -> %s, draining %.0f records",
				o.Name, reason, from, to, r.backlog(opID))
		}
	}
	// Close the operator's current "run" span at the migration boundary.
	if openFrom, ok := r.runSpanFrom[opID]; ok {
		r.streamSpanAt(from, o.Name, "run", "", openFrom, now)
		delete(r.runSpanFrom, opID)
	}
	if emergency {
		r.beginHandoff(m)
	}
	return true
}

// emergency fails the operator over from a dead host: no drain is
// possible, state rehydrates from the buddy replica.
func (r *Runtime) emergency(opID int, reason string) {
	if m := r.migrating[opID]; m != nil {
		// A graceful migration was in flight when the host died: if the
		// state is already shipping it lands on the chosen target; if the
		// drain never finished, convert it to an emergency handoff.
		if !m.shipping {
			m.emergency = true
			m.reason = m.reason + "+" + reason
			r.beginHandoff(m)
		}
		return
	}
	ex := r.liveExclusions()
	to := r.placer.Pick(r.topo, r.ops[opID], r.nodes, r.opNode, ex)
	if to == "" {
		r.violations = append(r.violations, fmt.Sprintf(
			"operator %d stranded: host %s dead and no live target", opID, r.opNode[opID]))
		return
	}
	r.startMigration(opID, to, reason, true)
}

// backlog sums the operator's in-channel queues.
func (r *Runtime) backlog(opID int) float64 {
	b := 0.0
	for _, ch := range r.inChans[opID] {
		b += ch.q.count
	}
	return b
}

// advanceMigrations moves draining migrations whose backlog is gone into
// the handoff phase.
func (r *Runtime) advanceMigrations() {
	// Topological order keeps the scan deterministic despite the map.
	for _, id := range r.order {
		m := r.migrating[id]
		if m == nil || m.shipping || m.emergency {
			continue
		}
		if !r.nodeAlive(m.from) {
			m.emergency = true
			m.reason += "+host-dead"
			r.beginHandoff(m)
			continue
		}
		if r.backlog(id) <= recEps {
			r.beginHandoff(m)
		}
	}
}

// beginHandoff ships the operator's state to the target host. For a
// graceful move the source is the old host; for an emergency the buddy
// replica (lowest-indexed live node, the target itself as a last resort —
// loopback rehydration from its own replica).
func (r *Runtime) beginHandoff(m *migration) {
	m.shipping = true
	m.handoffAt = r.eng.Now()
	o := r.ops[m.op]
	src := m.from
	if m.emergency || !r.nodeAlive(src) {
		src = m.to // fall back to loopback rehydration
		for _, n := range r.clu.Nodes {
			name := n.Spec.Name
			if r.nodeAlive(name) && name != m.to {
				src = name
				break
			}
		}
	}
	bytes := float64(o.StateBytes)
	if bytes <= 0 {
		bytes = 1
	}
	op := m.op
	r.clu.Net.Start(src, m.to, bytes, func() { r.finishMigration(op) })
}

// finishMigration rebinds the operator to its new host and resumes flow.
func (r *Runtime) finishMigration(opID int) {
	m := r.migrating[opID]
	if m == nil {
		return
	}
	now := r.eng.Now()
	o := r.ops[opID]
	r.opNode[opID] = m.to

	// Out-channel wires re-home by Redirect: the flow's remaining budget,
	// destination and callback survive; only the source end moves.
	for _, ch := range r.outChans[opID] {
		if ch.wire != nil && !ch.wire.Done() {
			if nf := r.clu.Net.Redirect(ch.wire, m.to); nf != nil {
				ch.wire = nf
				ch.lastRemaining = nf.Remaining()
			} else {
				ch.wire = nil
			}
		}
	}
	// In-channel wires point at the old host; cancel them and let the
	// wire manager reopen them toward the new host next tick.
	for _, ch := range r.inChans[opID] {
		if ch.wire != nil && !ch.wire.Done() {
			r.clu.Net.Cancel(ch.wire)
			ch.wire = nil
		}
		ch.paused = false
	}

	delete(r.migrating, opID)
	r.lastMigration[opID] = now
	r.runSpanFrom[opID] = now
	rec := MigrationRecord{
		Op: opID, OpName: o.Name, From: m.from, To: m.to, Reason: m.reason,
		Start: m.start, HandoffAt: m.handoffAt, End: now, Emergency: m.emergency,
	}
	r.records = append(r.records, rec)

	if !m.emergency {
		r.streamSpanAt(m.from, o.Name, "drain", m.reason, m.start, m.handoffAt)
	}
	if r.col != nil {
		r.streamSpanAt(m.to, o.Name, "handoff",
			fmt.Sprintf("%d state bytes from %s", o.StateBytes, m.from), m.handoffAt, now)
	}
	r.col.OperatorMigrated(o.Name, m.from, m.to, m.reason, now-m.start)
	if r.cfg.Trace != nil {
		r.trace("migrated %s: %s -> %s in %.2fs (%s)", o.Name, m.from, m.to, now-m.start, m.reason)
	}
}
