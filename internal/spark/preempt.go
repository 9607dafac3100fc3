package spark

import (
	"fmt"
	"math"
	"sort"

	"rupam/internal/task"
	"rupam/internal/wal"
)

// This file is the driver's notice-aware graceful-drain path for spot
// preemptions. A preemption *notice* (faults.SpotPreempt at T−grace) is an
// announced loss: the driver fences the doomed executor out of both
// schedulers' candidate sets (CanRunOn), stops launching onto it, and
// spends the grace window proactively re-replicating the node's completed
// shuffle outputs to healthy peers over the real simulated network — so
// when the kill lands, child stages fetch from the new homes instead of
// triggering FetchFailed/rollback storms. The eventual loss is *expected*:
// preemption-killed attempts charge neither the per-task retry budget nor
// the node blacklist (the cloud reclaimed the instance; the task and the
// node did nothing wrong).

// PreemptionRecord is one notice→kill episode on a node, kept for the
// chaos invariant battery and cost/drain reporting.
type PreemptionRecord struct {
	Node     string
	NoticeAt float64
	Grace    float64
	// KillAt is when the instance actually died (0 while the grace window
	// is still open at end of run).
	KillAt float64
	// Resolution is "" while open, then "drained" (nothing of value was on
	// the node when it died) or "killed" (running attempts or still-needed
	// outputs went down with it).
	Resolution     string
	AttemptsKilled int
	BlocksMoved    int
	BytesMoved     int64
	// FencedFrom is the instant new launches on the node stopped. The driver
	// fences at the notice itself (FencedFrom == NoticeAt): work started
	// after the warning would mostly die with the kill, while the elastic
	// substrate can place it on a healthy replacement instead. A record
	// opened by an unheard kill carries FencedFrom == KillAt.
	FencedFrom float64
	// ClearedAt is when the node rejoined after re-acquisition (0 = never);
	// launches after this instant are legitimate again.
	ClearedAt float64

	moved []movedOutput
}

// movedOutput is one shuffle block the drain relocated off the doomed node.
type movedOutput struct {
	st   *task.Stage
	idx  int
	dest string
}

// PreemptionRecords returns every notice→kill episode the driver observed,
// in notice order.
func (rt *Runtime) PreemptionRecords() []PreemptionRecord {
	out := make([]PreemptionRecord, len(rt.preemptRecs))
	for i, r := range rt.preemptRecs {
		out[i] = *r
	}
	return out
}

// PreemptViolations returns drain-protocol violations detected during the
// run (a relocated output found back on the dead node at kill time).
// Always empty unless the relocation bookkeeping is broken — the chaos
// battery asserts exactly that.
func (rt *Runtime) PreemptViolations() []string { return rt.preemptViolations }

// openPreemptRec returns the node's most recent unresolved record, or nil.
func (rt *Runtime) openPreemptRec(node string) *PreemptionRecord {
	for i := len(rt.preemptRecs) - 1; i >= 0; i-- {
		if rec := rt.preemptRecs[i]; rec.Node == node && rec.Resolution == "" {
			return rec
		}
	}
	return nil
}

// PreemptNotice is the driver's reaction to a spot-reclamation warning:
// fence the node and start draining its completed shuffle outputs. Wired
// to the injector's OnSpotNotice in single-application mode and routed by
// the tenant manager otherwise. A crashed driver cannot hear the notice
// (the loss is reconciled as announced at kill time instead).
func (rt *Runtime) PreemptNotice(node string, grace float64) {
	if rt.appDone || rt.crashed || rt.preempted[node] {
		return
	}
	ex := rt.Execs[node]
	if ex == nil || ex.FailStopped() {
		return
	}
	now := rt.Eng.Now()
	rt.preempted[node] = true
	rt.PreemptNotices++
	rec := &PreemptionRecord{Node: node, NoticeAt: now, Grace: grace}
	rt.preemptRecs = append(rt.preemptRecs, rec)
	rt.Cfg.Tracer.PreemptNotice(rt.Cfg.AppLabel, node, grace)
	// Fence immediately: every task launched onto the doomed node after the
	// notice is work the kill will probably throw away, while the elastic
	// substrate can grant the application a healthy replacement executor
	// within a tick or two — so the moment the warning lands, new launches
	// go elsewhere and the grace window is spent only finishing what is
	// already running and draining outputs.
	rec.FencedFrom = now
	rt.notifyExecutorSetChanged()
	// Attempts already running race the deadline: start speculative copies
	// now (decommission-style migration) so long tasks that cannot finish
	// in the window are already re-running elsewhere when the kill lands.
	for _, r := range rt.attemptsOn(node) {
		rt.MarkSpeculatable(r.Task())
	}
	rt.drainOutputs(node, rec)
	rt.reschedule()
}

// meanAttemptSeconds is the observed mean wall time of this application's
// successful attempts — the drain layer's recompute-cost
// predictor. False until the first success lands.
func (rt *Runtime) meanAttemptSeconds() (float64, bool) {
	if rt.attemptDurN == 0 {
		return 0, false
	}
	return rt.attemptDurSum / float64(rt.attemptDurN), true
}

// drainOutputs starts re-replication flows for the completed, still-needed
// shuffle outputs the node holds, in (stage, partition) order — but only
// the blocks worth moving. Re-replication competes with the workload's own
// shuffle traffic for the doomed node's NIC, and a lost block is not
// irreplaceable (lineage recomputes it), so a block is skipped when its
// transfer is predicted to cost more than recomputing the partition, or
// when the remaining grace window cannot push its bytes anyway (a flow the
// kill would cancel wastes bandwidth the cheap blocks need).
func (rt *Runtime) drainOutputs(node string, rec *PreemptionRecord) {
	if rt.app == nil || rt.jobIdx >= len(rt.app.Jobs) {
		return
	}
	egCap := rt.Clu.Node(node).Net.EgressCap()
	budget := math.Inf(1)
	if egCap > 0 && rec.Grace > 0 {
		budget = egCap * rec.Grace
	}
	recomputeBytes := math.Inf(1)
	if mean, ok := rt.meanAttemptSeconds(); ok && egCap > 0 {
		recomputeBytes = mean * egCap
	}
	job := rt.app.Jobs[rt.jobIdx]
	stages := append([]*task.Stage(nil), job.Stages...)
	sort.Slice(stages, func(i, j int) bool { return stages[i].ID < stages[j].ID })
	for _, st := range stages {
		if !rt.outputsNeeded(st, job) {
			continue
		}
		var idxs []int
		for _, t := range st.Tasks {
			if st.OutputNodeOf(t.Index) == node {
				idxs = append(idxs, t.Index)
			}
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			_, bytes := st.OutputOf(idx)
			if b := float64(bytes); b > recomputeBytes || b > budget {
				continue
			}
			if rt.drainOneOutput(node, st, idx, rec) {
				_, bytes := st.OutputOf(idx)
				budget -= float64(bytes)
			}
		}
	}
}

// drainOneOutput copies one block off the doomed node over the simulated
// network; on transfer completion the registry is re-pointed (and the move
// WAL-logged so a post-crash rebuild keeps the new location). Transfers
// still in flight when the kill lands are cancelled — bytes that did not
// finish copying die with the instance.
func (rt *Runtime) drainOneOutput(node string, st *task.Stage, idx int, rec *PreemptionRecord) bool {
	dest := rt.drainDest(node)
	if dest == "" {
		return false // nowhere healthy to copy to
	}
	_, bytes := st.OutputOf(idx)
	if bytes <= 0 {
		return false
	}
	flow := rt.Clu.Net.Start(node, dest, float64(bytes), func() {
		if rt.appDone || st.OutputNodeOf(idx) != node {
			return // a rerun re-registered the block elsewhere meanwhile
		}
		moved, ok := st.RelocateOutput(idx, dest)
		if !ok {
			return
		}
		rt.DrainBlocksMoved++
		rt.DrainBytesMoved += moved
		rec.BlocksMoved++
		rec.BytesMoved += moved
		rec.moved = append(rec.moved, movedOutput{st: st, idx: idx, dest: dest})
		rt.wlog.Append(wal.Record{Kind: wal.KindOutputMoved,
			Stage: st.ID, Index: idx, Node: dest, Bytes: moved})
		rt.Cfg.Tracer.DrainMoved(rt.Cfg.AppLabel, node, dest, st.ID, idx, moved)
	})
	rt.drainFlows[node] = append(rt.drainFlows[node], flow)
	return true
}

// drainDest picks the next healthy destination for a drained block,
// round-robin over live, unfenced nodes in cluster order so one peer does
// not absorb the whole drain.
func (rt *Runtime) drainDest(from string) string {
	var eligible []string
	for _, n := range rt.Clu.Nodes {
		name := n.Name()
		if name == from || rt.preempted[name] || rt.lostExecs[name] {
			continue
		}
		if ex := rt.Execs[name]; ex == nil || ex.Down() {
			continue
		}
		eligible = append(eligible, name)
	}
	if len(eligible) == 0 {
		return ""
	}
	dest := eligible[rt.drainRR%len(eligible)]
	rt.drainRR++
	return dest
}

// drainRedirectTarget reports where in-flight shuffle reads from a
// preempted node should re-source, or "" when they cannot. A node name
// comes back only when every still-needed shuffle output the doomed node
// held was relocated during the grace window — then readers switch to the
// relocated home that received the most blocks (ties to the smaller name,
// for determinism) instead of surfacing a FetchFailed for data that is
// demonstrably alive. Must run before rollbackOutputs zeroes the stage
// maps, and tolerates a record SpotKill already resolved.
func (rt *Runtime) drainRedirectTarget(node string) string {
	if rt.jobIdx >= len(rt.app.Jobs) {
		return ""
	}
	job := rt.app.Jobs[rt.jobIdx]
	for _, st := range job.Stages {
		if rt.outputsNeeded(st, job) && st.ShuffleOutputByNode[node] > 0 {
			return "" // a still-needed output dies with the node
		}
	}
	var rec *PreemptionRecord
	for i := len(rt.preemptRecs) - 1; i >= 0; i-- {
		if rt.preemptRecs[i].Node == node {
			rec = rt.preemptRecs[i]
			break
		}
	}
	if rec == nil {
		return ""
	}
	blocksAt := make(map[string]int)
	for _, mv := range rec.moved {
		// Only count blocks still where the drain put them, on a live peer.
		if mv.st.OutputNodeOf(mv.idx) != mv.dest || rt.lostExecs[mv.dest] {
			continue
		}
		if ex := rt.Execs[mv.dest]; ex == nil || ex.Down() {
			continue
		}
		blocksAt[mv.dest]++
	}
	best := ""
	for dest, n := range blocksAt {
		if best == "" || n > blocksAt[best] || (n == blocksAt[best] && dest < best) {
			best = dest
		}
	}
	return best
}

// SpotKill is the driver's reaction to the reclaimed instance actually
// dying at the end of its grace window. Unlike a heartbeat-timeout
// discovery this is prompt and *announced*: the loss routes through the
// normal executor-lost path, but attempts killed by it are exempt from
// failure counting and blacklisting (see noteTaskFailure), and outputs
// relocated during the grace window are verified to have survived.
func (rt *Runtime) SpotKill(node string) {
	now := rt.Eng.Now()
	// Incomplete drain copies die with the instance.
	for _, f := range rt.drainFlows[node] {
		rt.Clu.Net.Cancel(f)
	}
	delete(rt.drainFlows, node)

	rec := rt.openPreemptRec(node)
	if rt.appDone {
		if rec != nil {
			rec.KillAt, rec.Resolution = now, "drained"
		}
		return
	}
	// Even if the notice went unheard (driver down at notice time), the
	// kill itself identifies the loss as announced: mark the node so the
	// loss is never charged to tasks or the blacklist.
	rt.preempted[node] = true
	if rt.crashed {
		// The driver is down; reconcileLost settles the loss at recovery.
		if rec != nil {
			rec.KillAt, rec.Resolution = now, "killed"
		}
		return
	}

	attempts := len(rt.attemptsOn(node))
	drained := attempts == 0
	if drained && rt.jobIdx < len(rt.app.Jobs) {
		job := rt.app.Jobs[rt.jobIdx]
		for _, st := range job.Stages {
			if !rt.outputsNeeded(st, job) {
				continue
			}
			if st.ShuffleOutputByNode[node] > 0 {
				drained = false // still-needed outputs are going down with the node
				break
			}
		}
	}
	resolution := "killed"
	if drained {
		resolution = "drained"
		rt.DrainsCompleted++
	}
	rt.PreemptKills++
	if rec == nil {
		rec = &PreemptionRecord{Node: node, NoticeAt: now, Grace: 0, FencedFrom: now}
		rt.preemptRecs = append(rt.preemptRecs, rec)
	}
	rec.KillAt, rec.Resolution, rec.AttemptsKilled = now, resolution, attempts
	rt.Cfg.Tracer.PreemptKill(rt.Cfg.AppLabel, node, resolution, attempts)

	rt.executorLost(node, "spot-preempted")

	// Drain-protocol audit: every block relocated during the grace window
	// must have survived the kill at a location other than the dead node.
	for _, mv := range rec.moved {
		if mv.st.OutputNodeOf(mv.idx) == node {
			rt.preemptViolations = append(rt.preemptViolations, fmt.Sprintf(
				"relocated output stage %d index %d found back on preempted node %s at kill",
				mv.st.ID, mv.idx, node))
		}
	}
}

// clearPreempted lifts the fence after the node rejoined (the elastic
// substrate re-acquired the instance under a new incarnation), stamping
// the episode so post-run audits know launches after this instant are
// legitimate.
func (rt *Runtime) clearPreempted(node string) {
	if !rt.preempted[node] {
		return
	}
	delete(rt.preempted, node)
	now := rt.Eng.Now()
	for i := len(rt.preemptRecs) - 1; i >= 0; i-- {
		rec := rt.preemptRecs[i]
		if rec.Node == node && rec.ClearedAt == 0 {
			rec.ClearedAt = now
			break
		}
	}
}
