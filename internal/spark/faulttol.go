package spark

import (
	"fmt"
	"sort"

	"rupam/internal/executor"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// This file is the driver's fault-tolerance layer: heartbeat-timeout
// executor-loss detection, map-output loss with parent-stage resubmission
// (Spark's FetchFailed/DAGScheduler rollback), failure counting into the
// blacklist, and bounded retries escalating to a structured job abort. It
// is entirely event-driven off the same virtual clock as the rest of the
// simulation; with no faults injected none of it ever observes a missing
// heartbeat, so runs without a fault schedule are unchanged.

// ExecutorLossAware is an optional Scheduler capability: schedulers that
// keep per-node state (offer queues, in-flight counts, best-node locks)
// implement it to purge a lost node.
type ExecutorLossAware interface {
	ExecutorLost(node string)
}

// AbortError is the structured failure a run ends with when a task exceeds
// its retry budget — Spark's "Task failed N times, aborting job".
type AbortError struct {
	App      string
	Job      int
	Stage    int
	Task     int
	Failures int
	Reason   string
}

// Error implements error.
func (e *AbortError) Error() string {
	return fmt.Sprintf("spark: app %q job %d: %s in stage %d failed %d times (%s); aborting job",
		e.App, e.Job, fmt.Sprintf("task %d", e.Task), e.Stage, e.Failures, e.Reason)
}

// armWatchdog schedules the periodic heartbeat-timeout check. It runs at
// the heartbeat interval whether or not faults are injected; with every
// node reporting on time it observes nothing and changes nothing.
func (rt *Runtime) armWatchdog() {
	rt.wdTimer = rt.Eng.Schedule(rt.Cfg.HeartbeatInterval, func() {
		if rt.appDone {
			return
		}
		rt.checkHeartbeats()
		rt.armWatchdog()
	})
}

// checkHeartbeats declares executors lost when their last report is older
// than HeartbeatTimeout (spark.network.timeout in miniature).
func (rt *Runtime) checkHeartbeats() {
	now := rt.Eng.Now()
	for _, n := range rt.Clu.Nodes {
		name := n.Name()
		if rt.lostExecs[name] {
			continue
		}
		if now-rt.lastHB[name] > rt.Cfg.HeartbeatTimeout {
			rt.executorLost(name, "heartbeat timeout")
		}
	}
}

// noteHeartbeat records a node's report and re-registers a previously lost
// executor that is reporting again (recovered node, or a heartbeat-loss
// window closing).
func (rt *Runtime) noteHeartbeat(node string) {
	if ex := rt.Execs[node]; ex != nil && ex.Incarnation != rt.lastInc[node] {
		// The node crashed and restarted between two heartbeats — faster
		// than the timeout watchdog could notice, so its attempt deaths
		// were silent. Real Spark sees the restart as a new executor ID
		// registering and reaps the old one's state; do the same before
		// accepting the report.
		rt.lastInc[node] = ex.Incarnation
		rt.wlog.Append(wal.Record{Kind: wal.KindExecIncarnation, Node: node, Inc: ex.Incarnation})
		rt.executorLost(node, "executor restarted")
	}
	rt.lastHB[node] = rt.Eng.Now()
	if rt.lostExecs[node] {
		delete(rt.lostExecs, node)
		rt.ExecutorsRejoined++
		rt.Cfg.Tracer.ExecutorRejoined(node)
		rt.wlog.Append(wal.Record{Kind: wal.KindExecRejoined, Node: node})
		// A rejoined preempted node is a fresh instance the elastic substrate
		// re-acquired: lift the preemption fence before re-deriving state.
		rt.clearPreempted(node)
		// A rejoined node may restore locality levels the pending stages
		// gave up on; let the scheduler re-derive its delay state.
		rt.notifyExecutorSetChanged()
	}
}

// executorLost is the driver's reaction to a dead (or unreachable) node:
// purge it from the scheduler, fail its in-flight attempts, roll back the
// map outputs it held (resubmitting the parent tasks that produced them),
// and fetch-fail every running attempt that was streaming shuffle data
// from it.
func (rt *Runtime) executorLost(node string, reason string) {
	if rt.appDone || rt.lostExecs[node] {
		return
	}
	rt.lostExecs[node] = true
	rt.ExecutorsLost++
	rt.Cfg.Tracer.ExecutorLost(node, reason)
	rt.wlog.Append(wal.Record{Kind: wal.KindExecLost, Node: node})

	if ela, ok := rt.sched.(ExecutorLossAware); ok {
		ela.ExecutorLost(node)
	}
	rt.notifyExecutorSetChanged()

	// Decide fetch redirection before the rollback wipes the stage maps: a
	// preempted node whose still-needed shuffle outputs were all relocated
	// during the grace window leaves its in-flight readers a healthy home
	// to re-source from, so their fetches need not fail at all.
	redirectTo := ""
	if rt.preempted[node] {
		redirectTo = rt.drainRedirectTarget(node)
	}

	// Map-output rollback first, so the launch gates below already see the
	// parent stages as incomplete when attempts start getting resubmitted.
	rt.rollbackOutputs(node)

	// Fail the node's in-flight attempts. A fail-stopped executor already
	// killed them silently (the driver only now finds out); for a mere
	// heartbeat loss they are genuinely still running and are killed here,
	// matching the driver's view that the node is gone.
	for _, r := range rt.attemptsOn(node) {
		r.Kill(false)
		rt.onTaskEnd(r, executor.Lost)
	}

	// Attempts mid-fetch from the lost node's shuffle files: when the
	// source executor is confirmed dead (fail-stopped, down, or seen
	// restarting under a new incarnation) the connection is refused and
	// the fetch escalates to FetchFailed immediately, as before. When the
	// node merely stopped heartbeating — a driver-side partition, the
	// process may well be alive and still serving shuffle blocks — the
	// driver instead re-checks the fetch a bounded number of times with
	// deterministic backoff, escalating only if the source is still gone.
	ex := rt.Execs[node]
	confirmed := ex == nil || ex.Down() || ex.FailStopped() || reason == "executor restarted"
	for _, r := range rt.runningSorted() {
		if !r.FetchingFrom(node) {
			continue
		}
		if redirectTo != "" && r.RedirectFetch(node, redirectTo) {
			// The blocks this attempt was streaming have live relocated
			// copies: the read resumes from the new home mid-transfer, the
			// way a block-manager decommission hands readers its replicas.
			rt.DrainFetchRedirects++
			continue
		}
		if confirmed {
			r.FailFetch() // fires onTaskEnd(FetchFailed) via onDone
		} else {
			rt.deferFetchFailure(r, node, 1)
		}
	}
	rt.reschedule()
}

// Shuffle fetches from a slow-but-alive source get fetchRetries
// deterministic-backoff re-checks before the driver escalates to
// FetchFailed; re-check i fires fetchRetryBackoff×i seconds after the
// previous one. Fetches from a source whose executor is confirmed dead
// always escalate immediately.
const (
	fetchRetries              = 2
	fetchRetryBackoff float64 = 1.5
)

// deferFetchFailure arms re-check number attempt of a shuffle fetch from a
// slow-but-alive source. At each firing: a fetch that completed, moved on,
// or whose source rejoined needs nothing; a source meanwhile confirmed
// dead escalates at once; otherwise the next re-check is armed until the
// fetchRetries budget is spent and the fetch fails over to the rollback
// path.
func (rt *Runtime) deferFetchFailure(r *executor.Run, node string, attempt int) {
	rt.Eng.Schedule(fetchRetryBackoff*float64(attempt), func() {
		if rt.appDone || r.Done() || !r.FetchingFrom(node) {
			return
		}
		if !rt.lostExecs[node] {
			return // the source rejoined; let the fetch finish
		}
		ex := rt.Execs[node]
		if ex == nil || ex.Down() || ex.FailStopped() || attempt >= fetchRetries {
			r.FailFetch()
			return
		}
		rt.deferFetchFailure(r, node, attempt+1)
	})
}

// attemptsOn returns the live attempts placed on node, in task-ID order.
func (rt *Runtime) attemptsOn(node string) []*executor.Run {
	var rs []*executor.Run
	for _, r := range rt.runningSorted() {
		if r.Metrics().Executor == node {
			rs = append(rs, r)
		}
	}
	return rs
}

// runningSorted returns every live attempt in deterministic (task ID, then
// launch) order.
func (rt *Runtime) runningSorted() []*executor.Run {
	ids := make([]int, 0, len(rt.runningAtt))
	for id := range rt.runningAtt {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*executor.Run, 0, rt.liveAtt)
	for _, id := range ids {
		out = append(out, rt.runningAtt[id]...)
	}
	return out
}

// rollbackOutputs implements the DAGScheduler's response to losing a
// node's shuffle files: every current-job stage whose output is still
// needed forgets the map outputs it had on the node, and the tasks that
// produced them go back to pending. Children are processed before parents
// so that a child's rollback marks its parents as needed again.
func (rt *Runtime) rollbackOutputs(node string) {
	job := rt.app.Jobs[rt.jobIdx]
	stages := append([]*task.Stage(nil), job.Stages...)
	sort.Slice(stages, func(i, j int) bool { return stages[i].ID > stages[j].ID })
	for _, st := range stages {
		if !rt.outputsNeeded(st, job) {
			continue
		}
		lost := st.LoseNodeOutputs(node)
		if len(lost) == 0 {
			continue
		}
		if rt.submitted[st.ID] {
			rt.activeStages[st.ID] = st
		}
		for _, idx := range lost {
			rt.wlog.Append(wal.Record{Kind: wal.KindOutputLost, Stage: st.ID, Index: idx})
			t := st.TaskByIndex(idx)
			if t == nil || t.State != task.Finished {
				continue
			}
			t.State = task.Pending
			rt.resolveCacheLocation(t)
			rt.Resubmissions++
			rt.resubmits[t.ID]++
			rt.Cfg.Tracer.TaskQueued(t.ID)
			rt.wlog.Append(wal.Record{Kind: wal.KindTaskRolledBack, Task: t.ID})
			rt.sched.Resubmit(t, st)
		}
	}
}

// outputsNeeded reports whether st's shuffle output can still be read: the
// stage itself is incomplete (it will be read once done) or some dependent
// stage has not finished consuming it.
func (rt *Runtime) outputsNeeded(st *task.Stage, job *task.Job) bool {
	if !st.IsComplete() {
		return true
	}
	for _, c := range job.Stages {
		for _, p := range c.Parent {
			if p == st && !c.IsComplete() {
				return true
			}
		}
	}
	return false
}

// noteTaskFailure counts a genuine attempt failure (OOM, executor loss, or
// fetch failure — never a deliberate kill) against the retry budget and
// the blacklist, aborting the job when the budget is exhausted.
func (rt *Runtime) noteTaskFailure(t *task.Task, st *task.Stage, r *executor.Run, out executor.Outcome) {
	if out == executor.Lost && rt.preempted[r.Metrics().Executor] {
		// An announced spot reclamation killed the attempt. The cloud took
		// the instance back; neither the task nor the node did anything
		// wrong, so the loss charges neither the retry budget nor the
		// blacklist — a task preempted arbitrarily many times still runs.
		rt.PreemptLossesUncharged++
		return
	}
	rt.failCount[t.ID]++
	if rt.bl != nil && out != executor.FetchFailed {
		// A fetch failure blames the dead source, not the node the attempt
		// ran on; the source is already being handled as an executor loss.
		if activated, until := rt.bl.noteFailure(t.ID, r.Metrics().Executor); activated {
			rt.NodesBlacklisted++
			rt.wlog.Append(wal.Record{Kind: wal.KindBlacklistAdd,
				Node: r.Metrics().Executor, Until: until})
		}
	}
	if rt.Cfg.TaskMaxFailures > 0 && rt.failCount[t.ID] >= rt.Cfg.TaskMaxFailures {
		rt.abortJob(t, st, out.String())
	}
}

// abortJob ends the application with a structured error instead of letting
// a doomed task retry forever: running attempts are killed, and Run
// returns a Result carrying the AbortError.
func (rt *Runtime) abortJob(t *task.Task, st *task.Stage, reason string) {
	if rt.appDone {
		return
	}
	rt.aborted = &AbortError{
		App:      rt.app.Name,
		Job:      rt.jobIdx,
		Stage:    st.ID,
		Task:     t.ID,
		Failures: rt.failCount[t.ID],
		Reason:   reason,
	}
	t.State = task.Failed
	rt.Cfg.Tracer.JobAborted(rt.aborted.Error())
	for _, r := range rt.runningSorted() {
		r.Kill(false)
	}
	rt.resetRunning()
	rt.finishApp()
}

// ResubmitCount returns how many times the task was sent back to pending
// by a map-output rollback. Each rollback legitimately adds one more
// successful attempt to the task's history, which the chaos invariant
// checker must not mistake for a double-counted completion.
func (rt *Runtime) ResubmitCount(taskID int) int { return rt.resubmits[taskID] }

// DuplicateSuccessCount reports how many redundant successes of the task
// recovery drained from the orphan buffer: a speculative race whose copies
// all completed while the driver was down yields one successful attempt
// per copy, of which the driver counts exactly one. The invariant battery
// uses this to license the extra attempt-level successes without loosening
// its at-most-one bound for live-driver execution.
func (rt *Runtime) DuplicateSuccessCount(taskID int) int { return rt.dupSuccess[taskID] }

// TaskBlockedOn reports whether the blacklist forbids launching the task
// on node; schedulers consult it when picking placements.
func (rt *Runtime) TaskBlockedOn(taskID int, node string) bool {
	return rt.bl != nil && rt.bl.taskBlocked(taskID, node)
}

// StageReady reports whether every parent of st is complete — false while
// a rollback is recomputing lost map outputs. Launch refuses tasks of
// unready stages; schedulers use this to skip them cheaply.
func (rt *Runtime) StageReady(st *task.Stage) bool {
	for _, p := range st.Parent {
		if !p.IsComplete() {
			return false
		}
	}
	return true
}
