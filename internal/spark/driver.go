package spark

import (
	"cmp"
	"slices"

	"rupam/internal/executor"
	"rupam/internal/simx"
	"rupam/internal/stats"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// submitJob activates job j: resolves cache locations for its tasks and
// submits every stage whose parents are complete.
func (rt *Runtime) submitJob(j int) {
	rt.jobIdx = j
	job := rt.app.Jobs[j]
	rt.Cfg.Tracer.JobBegin(job.ID, job.Name)
	rt.wlog.Append(wal.Record{Kind: wal.KindJobSubmitted, Job: j})
	for _, st := range job.Stages {
		rt.stages[st.ID] = st
		for _, t := range st.Tasks {
			rt.stageOf[t.ID] = st
		}
	}
	for _, st := range job.Stages {
		rt.maybeSubmitStage(st)
	}
	rt.reschedule()
}

// maybeSubmitStage submits st to the scheduler if all parents are complete
// and it has not been submitted yet.
func (rt *Runtime) maybeSubmitStage(st *task.Stage) {
	if rt.submitted[st.ID] {
		return
	}
	for _, p := range st.Parent {
		if !p.IsComplete() {
			return
		}
	}
	rt.submitted[st.ID] = true
	rt.activeStages[st.ID] = st
	rt.Cfg.Tracer.StageBegin(st)
	rt.wlog.Append(wal.Record{Kind: wal.KindStageSubmitted, Stage: st.ID, Job: rt.jobIdx})
	for _, t := range st.Tasks {
		rt.resolveCacheLocation(t)
		t.State = task.Pending
		rt.Cfg.Tracer.TaskQueued(t.ID)
	}
	rt.sched.StageSubmitted(st)
}

// resolveCacheLocation fills in the task's PROCESS_LOCAL node from the
// cache tracker — Spark's DAGScheduler.getCacheLocs step.
func (rt *Runtime) resolveCacheLocation(t *task.Task) {
	t.CachedOn = ""
	if t.CacheRDD == 0 {
		return
	}
	if node, ok := rt.Cache.Lookup(executor.CacheKey{RDD: t.CacheRDD, Partition: t.Index}); ok {
		t.CachedOn = node
	}
}

// CanRunOn reports whether node's executor exists, is up, has not been
// declared lost by the driver, is not blacklisted, and — in tenant mode —
// passes the launch gate (a dynamic-allocation lease with free capacity
// and a fair-share slot budget). Both schedulers route every placement
// through this check, so the pool layer decides *whether this app* may
// take the slot while the scheduler's heuristics keep deciding *which
// node* fits the task.
func (rt *Runtime) CanRunOn(node string) bool {
	ex, ok := rt.Execs[node]
	if !ok || ex.Down() || rt.lostExecs[node] {
		return false
	}
	if rt.preempted[node] {
		// A preemption notice dooms the node: new launches and speculative
		// copies go to healthy executors for the rest of the grace window.
		return false
	}
	if rt.bl != nil && rt.bl.nodeBlacklisted(node) {
		return false
	}
	return rt.gate == nil || rt.gate(node)
}

// Launch starts an attempt of t on node, returning the attempt's Run (nil
// if the launch was refused). All schedulers place tasks through this
// single entry point.
func (rt *Runtime) Launch(t *task.Task, node string, opts executor.Options) *executor.Run {
	if rt.appDone || rt.crashed || !rt.CanRunOn(node) {
		return nil
	}
	ex := rt.Execs[node]
	st, ok := rt.stageOf[t.ID]
	if !ok {
		return nil
	}
	if t.State == task.Finished || t.State == task.Failed {
		return nil
	}
	if !rt.StageReady(st) {
		// A rollback is recomputing this stage's parent outputs; the task
		// must wait for them.
		return nil
	}
	if rt.TaskBlockedOn(t.ID, node) {
		return nil
	}
	if opts.Speculative {
		if max := rt.Cfg.SpeculationMaxPerStage; max > 0 && rt.SpecInFlight(st.ID) >= max {
			return nil
		}
	}
	if rt.capFn != nil && !rt.capFn() {
		return nil // FAIR slot budget spent; another pool's turn
	}
	if rt.broker != nil && !rt.broker.AdmitPlacement(t, node) {
		// Federated mode: the node's slots belong to its agent. A refusal
		// either started a claim (a later round retries once it commits)
		// or lost an arbitration; either way nothing launches now.
		return nil
	}
	t.State = task.Running
	rt.LaunchCount++
	if opts.Speculative {
		rt.SpecCopies++
	}
	r := ex.Launch(t, st, opts, rt.onTaskEnd)
	rt.setRunning(t.ID, append(rt.runningAtt[t.ID], r))
	rt.wlog.Append(wal.Record{Kind: wal.KindTaskLaunched,
		Task: t.ID, Stage: st.ID, Index: t.Index, Node: node, Spec: opts.Speculative})
	if rt.broker != nil {
		rt.broker.PlacementStarted(t, node)
	}
	return r
}

// RunningAttempts returns the live attempts of a task.
func (rt *Runtime) RunningAttempts(t *task.Task) []*executor.Run { return rt.runningAtt[t.ID] }

// setRunning replaces a task's live attempts. Every write to runningAtt
// goes through here (or resetRunning), so a task whose last attempt left
// has no entry and liveAtt stays the total count.
func (rt *Runtime) setRunning(id int, rs []*executor.Run) {
	rt.liveAtt += len(rs) - len(rt.runningAtt[id])
	if len(rs) == 0 {
		delete(rt.runningAtt, id)
		return
	}
	rt.runningAtt[id] = rs
}

// resetRunning forgets every live attempt.
func (rt *Runtime) resetRunning() {
	rt.runningAtt = make(map[int][]*executor.Run)
	rt.liveAtt = 0
}

// onTaskEnd is the single completion path for every attempt. While the
// driver is down (a DriverCrash window) completions are not lost: they
// buffer in arrival order, modeling executors that hold their status
// updates until the restarted driver re-registers them, and recovery
// redelivers each through this same path.
func (rt *Runtime) onTaskEnd(r *executor.Run, out executor.Outcome) {
	if rt.crashed {
		rt.orphaned = append(rt.orphaned, orphanEnd{r: r, out: out})
		return
	}
	t := r.Task()
	st := r.Stage()

	// Drop the attempt from the live set.
	live := rt.runningAtt[t.ID]
	for i, a := range live {
		if a == r {
			live = append(live[:i], live[i+1:]...)
			break
		}
	}
	rt.setRunning(t.ID, live)

	rt.sched.TaskEnded(t, r, out)
	if rt.OnAttemptEnd != nil {
		rt.OnAttemptEnd(t, r.Metrics().Executor, out)
	}

	switch out {
	case executor.Success:
		if t.State != task.Finished {
			t.State = task.Finished
			delete(rt.speculatable, t.ID)
			if m := r.Metrics(); m.End > m.Launch {
				// Observed attempt wall time feeds the drain's fence-point
				// prediction (how late a doomed node can still accept work).
				rt.attemptDurSum += m.End - m.Launch
				rt.attemptDurN++
			}
			rt.wlog.Append(wal.Record{Kind: wal.KindTaskSucceeded,
				Task: t.ID, Stage: st.ID, Index: t.Index,
				Node: r.Metrics().Executor, Bytes: t.Demand.ShuffleWriteBytes})
			if t.Demand.ShuffleWriteBytes > 0 && st.OutputNodeOf(t.Index) == "" {
				// An adopted attempt's shuffle write landed before driver
				// recovery wiped the stage's output map; re-register it so
				// children can locate the blocks.
				st.RecordShuffleOutput(t.Index, r.Metrics().Executor, t.Demand.ShuffleWriteBytes)
			}
			// The losing copies are cancelled; the driver does not route
			// them through the failure path (no resubmission), but the
			// scheduler still hears about each so its per-node accounting
			// stays truthful.
			for _, a := range append([]*executor.Run(nil), live...) {
				a.Kill(false)
				rt.sched.TaskEnded(t, a, executor.Killed)
				if rt.OnAttemptEnd != nil {
					rt.OnAttemptEnd(t, a.Metrics().Executor, executor.Killed)
				}
				rt.wlog.Append(wal.Record{Kind: wal.KindAttemptEnded,
					Task: t.ID, Node: a.Metrics().Executor, Outcome: "killed"})
			}
			rt.setRunning(t.ID, nil)
			if st.MarkCompleted() {
				rt.onStageComplete(st)
			}
		} else {
			// A second success of an already-finished task (a redelivered
			// race both copies of which completed while the driver was
			// down). The completion is not double-counted; the attempt is
			// simply drained. The count of drains licenses the extra
			// successful attempt metrics for the invariant battery — only
			// during orphan redelivery, so the strict at-most-one bound
			// still holds everywhere a live driver could have killed the
			// loser.
			if rt.redelivering {
				rt.dupSuccess[t.ID]++
			}
			rt.wlog.Append(wal.Record{Kind: wal.KindAttemptEnded,
				Task: t.ID, Node: r.Metrics().Executor, Outcome: "success"})
		}
	case executor.OOM, executor.Killed, executor.Lost, executor.FetchFailed, executor.Flaked:
		outcome := out.String()
		if out == executor.Lost && rt.preempted[r.Metrics().Executor] {
			// An announced spot reclamation: the distinct WAL outcome keeps a
			// post-crash replay from folding the loss into failure counts.
			outcome = "preempted"
		}
		rt.wlog.Append(wal.Record{Kind: wal.KindAttemptEnded,
			Task: t.ID, Node: r.Metrics().Executor, Outcome: outcome})
		if t.State == task.Finished {
			break // a lost speculative copy; nothing to do
		}
		if out == executor.FetchFailed {
			rt.FetchFailures++
		}
		if out != executor.Killed {
			// A deliberate kill (losing speculative copy, memory reclaim)
			// is not the task's fault and counts against nothing.
			rt.noteTaskFailure(t, st, r, out)
			if rt.appDone {
				break // the failure aborted the job
			}
		}
		if len(rt.runningAtt[t.ID]) > 0 {
			break // another copy is still running; let it race
		}
		t.State = task.Pending
		rt.resolveCacheLocation(t) // cache may have moved or been dropped
		rt.Cfg.Tracer.TaskQueued(t.ID)
		rt.wlog.Append(wal.Record{Kind: wal.KindTaskRequeued, Task: t.ID, Stage: st.ID})
		rt.sched.Resubmit(t, st)
	}
	if rt.appDone {
		return
	}
	rt.reschedule()
}

// onStageComplete advances the DAG: submits newly-ready stages, and when
// the job's final stage lands, moves to the next job or finishes the app.
func (rt *Runtime) onStageComplete(st *task.Stage) {
	delete(rt.activeStages, st.ID)
	rt.Cfg.Tracer.StageEnd(st.ID)
	rt.wlog.Append(wal.Record{Kind: wal.KindStageCompleted, Stage: st.ID, Job: rt.jobIdx})
	job := rt.app.Jobs[rt.jobIdx]
	for _, s := range job.Stages {
		rt.maybeSubmitStage(s)
	}
	if st == job.Final {
		rt.Cfg.Tracer.JobEnd(job.ID)
		rt.wlog.Append(wal.Record{Kind: wal.KindJobCompleted, Job: rt.jobIdx})
		rt.jobEnds = append(rt.jobEnds, rt.Eng.Now())
		if rt.jobIdx+1 < len(rt.app.Jobs) {
			rt.submitJob(rt.jobIdx + 1)
			return
		}
		rt.finishApp()
	}
}

func (rt *Runtime) finishApp() {
	rt.appDone = true
	rt.appEnd = rt.Eng.Now()
	if rt.ownsSubstrate {
		// A shared monitor keeps beating for the sibling applications; only
		// a single-application run tears it down with the app.
		rt.Mon.Stop()
	}
	if rt.Rec != nil {
		rt.Rec.Stop()
	}
	rt.specTimer.Cancel()
	rt.specTimer = simx.Timer{}
	rt.wdTimer.Cancel()
	rt.wdTimer = simx.Timer{}
	if rt.OnAppDone != nil {
		rt.OnAppDone()
	}
}

// ---- speculative execution ---------------------------------------------

// scheduleSpeculationScan arms the periodic straggler check.
func (rt *Runtime) scheduleSpeculationScan() {
	rt.specTimer = rt.Eng.Schedule(rt.Cfg.SpeculationInterval, func() {
		if rt.appDone {
			return
		}
		rt.scanForStragglers()
		rt.scheduleSpeculationScan()
		rt.reschedule()
	})
}

// scanForStragglers implements Spark's speculation rule: once a stage is
// SpeculationQuantile complete, any running task older than
// SpeculationMultiplier × the median successful duration becomes
// speculatable. The median matches TaskSetManager.checkSpeculatableTasks:
// a mean would let a single fast thor-class completion drag the threshold
// down and trigger storms of false speculations on slower stack-class
// nodes.
func (rt *Runtime) scanForStragglers() {
	now := rt.Eng.Now()
	for _, st := range rt.sortedActiveStages() {
		n := st.NumTasks()
		if n <= 1 || float64(st.Completed()) < rt.Cfg.SpeculationQuantile*float64(n) {
			continue
		}
		var durs []float64
		for _, t := range st.Tasks {
			if m := t.SuccessMetrics(); m != nil {
				durs = append(durs, m.Duration())
			}
		}
		if len(durs) == 0 {
			continue
		}
		threshold := rt.Cfg.SpeculationMultiplier * stats.Median(durs)
		if threshold < 0.1 {
			threshold = 0.1
		}
		for _, t := range st.Tasks {
			if t.State != task.Running || len(rt.runningAtt[t.ID]) != 1 {
				continue
			}
			att := rt.runningAtt[t.ID][0]
			if now-att.Metrics().Launch > threshold {
				rt.Cfg.Tracer.SpeculatableMarked(t.ID)
				rt.wlog.Append(wal.Record{Kind: wal.KindSpecMarked, Task: t.ID, Stage: st.ID})
				rt.speculatable[t.ID] = t
			}
		}
	}
}

// SpeculativeTasks returns the current straggler set in deterministic
// order; schedulers launch copies of these when they have spare resources
// (Algorithm 2's speculativeTaskSet path).
func (rt *Runtime) SpeculativeTasks() []*task.Task {
	if len(rt.speculatable) == 0 {
		// Fast path for the common case: schedulers poll this on every
		// scheduling round, and the straggler set is almost always empty.
		return nil
	}
	ts := make([]*task.Task, 0, len(rt.speculatable))
	for _, t := range rt.speculatable {
		if t.State == task.Running {
			ts = append(ts, t)
		}
	}
	slices.SortFunc(ts, func(a, b *task.Task) int { return cmp.Compare(a.ID, b.ID) })
	return ts
}

// MarkSpeculatable force-adds a task to the straggler set (RUPAM's
// resource-straggler extension of checkSpeculatableTasks).
func (rt *Runtime) MarkSpeculatable(t *task.Task) {
	if t.State == task.Running {
		rt.Cfg.Tracer.SpeculatableMarked(t.ID)
		rt.wlog.Append(wal.Record{Kind: wal.KindSpecMarked, Task: t.ID, Stage: t.StageID})
		rt.speculatable[t.ID] = t
	}
}

// ClearSpeculatable removes a task from the straggler set (a copy was
// launched or the task finished).
func (rt *Runtime) ClearSpeculatable(t *task.Task) { delete(rt.speculatable, t.ID) }

// SpecInFlight counts the live speculative copies of a stage's tasks. It
// is computed from the attempt registry rather than a counter so silent
// kills (notify=false) can never make it drift.
func (rt *Runtime) SpecInFlight(stageID int) int {
	n := 0
	for _, rs := range rt.runningAtt {
		for _, r := range rs {
			if r.Speculative() && !r.Done() && r.Stage().ID == stageID {
				n++
			}
		}
	}
	return n
}

// NodeDegraded reports whether node's latest heartbeat shows a below-spec
// effective CPU frequency — the driver-side view of a fail-slow node
// inside an injected (or DVFS) throttle window.
func (rt *Runtime) NodeDegraded(node string) bool {
	nm := rt.Mon.Latest(node)
	if nm == nil {
		return false
	}
	n := rt.Clu.Node(node)
	return n != nil && nm.CPUFreq < n.Spec.FreqGHz*0.999
}

// SpecCopyAllowed reports whether a speculative copy of t may go to node:
// the node must be launchable and not blocked for the task, must not
// already host an attempt of t, must not look degraded in its latest
// heartbeat (a fail-slow node is exactly where the copy must NOT go),
// and the stage's in-flight copies must be under SpeculationMaxPerStage.
// Both schedulers consult this before placing a copy.
func (rt *Runtime) SpecCopyAllowed(t *task.Task, node string) bool {
	if !rt.CanRunOn(node) || rt.TaskBlockedOn(t.ID, node) {
		return false
	}
	for _, a := range rt.runningAtt[t.ID] {
		if a.Metrics().Executor == node {
			return false
		}
	}
	if rt.NodeDegraded(node) {
		return false
	}
	if max := rt.Cfg.SpeculationMaxPerStage; max > 0 {
		if st := rt.stageOf[t.ID]; st != nil && rt.SpecInFlight(st.ID) >= max {
			return false
		}
	}
	return true
}

// StageOf returns the stage owning the task.
func (rt *Runtime) StageOf(t *task.Task) *task.Stage { return rt.stageOf[t.ID] }

// LiveAttempts returns the number of attempts still registered as
// in-flight. After a run (completed or aborted) it must be zero — the
// chaos harness's attempt-leak invariant.
func (rt *Runtime) LiveAttempts() int { return rt.liveAtt }

// SpeculatableCount returns the size of the straggler set (drained to
// zero by the end of a completed run).
func (rt *Runtime) SpeculatableCount() int { return len(rt.speculatable) }

// RunningOn counts this application's live attempts currently placed on
// node — the tenant layer's per-lease occupancy view.
func (rt *Runtime) RunningOn(node string) int {
	n := 0
	for _, rs := range rt.runningAtt {
		for _, r := range rs {
			if !r.Done() && r.Metrics().Executor == node {
				n++
			}
		}
	}
	return n
}

// BlacklistedNow returns how many nodes are currently inside a blacklist
// window (0 when blacklisting is off).
func (rt *Runtime) BlacklistedNow() int {
	if rt.bl == nil {
		return 0
	}
	n := 0
	for _, until := range rt.bl.until {
		if until > rt.Eng.Now() {
			n++
		}
	}
	return n
}

// ActiveStages returns the currently active stages ordered by ID.
func (rt *Runtime) sortedActiveStages() []*task.Stage {
	ss := make([]*task.Stage, 0, len(rt.activeStages))
	for _, s := range rt.activeStages {
		ss = append(ss, s)
	}
	slices.SortFunc(ss, func(a, b *task.Stage) int { return cmp.Compare(a.ID, b.ID) })
	return ss
}

// ActiveStages returns active stages in deterministic (ID) order.
func (rt *Runtime) ActiveStages() []*task.Stage { return rt.sortedActiveStages() }
