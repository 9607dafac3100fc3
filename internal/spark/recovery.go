package spark

import (
	"bytes"
	"fmt"
	"sort"

	"rupam/internal/executor"
	"rupam/internal/simx"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// This file is the driver's crash-recovery path. A DriverCrash fault kills
// the driver process in place: every piece of driver-side state — the
// stage registry, the attempt table, the map-output locations, failure
// counts, the blacklist, scheduler queues — is wiped and must be
// reconstructed from the write-ahead log. The cluster itself keeps
// running: executors finish (and buffer) their work, worker faults keep
// firing, the virtual clock keeps advancing. After the restart delay the
// driver replays the log, reconciles with the surviving executors
// (re-adopting in-flight attempts whose launches it logged, declaring
// unreachable or restarted executors lost), redelivers the buffered
// completions through the normal completion path, and resumes.

// RecoveryAware is an optional Scheduler capability: schedulers that keep
// internal queues or learned state (RUPAM's CharDB, the default
// scheduler's locality queues) implement it to rebuild themselves from
// the replayed write-ahead-log state after a driver crash. Schedulers
// without it are rebuilt implicitly through the StageSubmitted/Resubmit
// calls recovery replays.
type RecoveryAware interface {
	DriverRecovery(s *wal.State)
}

// orphanEnd buffers one completion that arrived while the driver was
// down; recovery redelivers them in arrival order.
type orphanEnd struct {
	r   *executor.Run
	out executor.Outcome
}

// driverCrash models the driver process dying: monitoring, the watchdog
// and the speculation scan stop, launches are refused, and completions
// buffer instead of being processed. The WAL (the durable artifact that
// survives the crash) is left exactly as written. Recovery is scheduled
// after the restart delay on the same virtual clock.
func (rt *Runtime) driverCrash(restartAfter float64) {
	if rt.appDone || rt.crashed {
		return
	}
	if rt.wlog == nil {
		// No WAL, no recovery — refuse the crash rather than wedge the
		// run. Run auto-creates a log whenever the plan contains a
		// DriverCrash, so this only guards hand-wired injectors.
		return
	}
	rt.crashed = true
	rt.crashAt = rt.Eng.Now()
	rt.DriverCrashes++
	spec := 0
	for _, rs := range rt.runningAtt {
		for _, r := range rs {
			if r.Speculative() && !r.Done() {
				spec++
			}
		}
	}
	rt.SpecLiveAtCrash = append(rt.SpecLiveAtCrash, spec)
	rt.Cfg.Tracer.DriverCrashed(restartAfter)
	rt.wlog.Append(wal.Record{Kind: wal.KindDriverCrashed})
	if rt.ownsSubstrate {
		// A shared monitor belongs to the tenant manager and keeps beating
		// for the sibling applications; this driver simply stops listening
		// (DeliverHeartbeat refuses reports while crashed).
		rt.Mon.Stop()
	}
	rt.specTimer.Cancel()
	rt.specTimer = simx.Timer{}
	rt.wdTimer.Cancel()
	rt.wdTimer = simx.Timer{}
	rt.Eng.Schedule(restartAfter, rt.recoverDriver)
}

// CrashDriver injects a driver crash with the given restart delay — the
// tenant manager's entry point for routing a substrate-level DriverCrash
// fault to one application's driver. A driver without a WAL refuses the
// crash (recovery would be impossible), exactly like driverCrash.
func (rt *Runtime) CrashDriver(restartAfter float64) { rt.driverCrash(restartAfter) }

// recoverDriver is the restarted driver's boot sequence: replay the WAL,
// rebuild driver and scheduler state, reconcile with the surviving
// executors, redeliver buffered completions, re-arm the periodic
// machinery, and resume scheduling.
func (rt *Runtime) recoverDriver() {
	if rt.appDone || !rt.crashed {
		return
	}
	// 1. Replay the log into a folded state. The replay is deterministic:
	// the same bytes always fold to the same state.
	s, nrec, err := wal.Replay(bytes.NewReader(rt.wlog.Bytes()))
	if err != nil {
		panic(fmt.Sprintf("spark: WAL replay failed at recovery: %v", err))
	}

	// 2. Wipe and rebuild the driver's in-memory state from the fold.
	rt.restoreFromState(s)

	// 3. Fence the log: everything after this record describes the
	// recovered incarnation. Replaying a log with a Recovered record
	// clears the folded in-flight set, so the adoption records below
	// cannot double-add attempts on a later replay (or a later crash).
	rt.wlog.Append(wal.Record{Kind: wal.KindRecovered})

	// 4. Let the scheduler rebuild its internal state from the fold.
	if ra, ok := rt.sched.(RecoveryAware); ok {
		ra.DriverRecovery(s)
	}

	// 5. Reconcile, part one — adoption: on every reachable executor
	// still running the incarnation the log knew, re-adopt the in-flight
	// attempts whose launches were logged. Adopted attempts keep their
	// original launch accounting (no LaunchCount increment).
	adopted := rt.adoptSurvivors(s)

	// 6. Re-hand every submitted-but-incomplete stage to the scheduler so
	// its queues refill; pending tasks get fresh cache locations first.
	// Schedulers skip non-pending tasks lazily, so finished and adopted
	// tasks riding along are harmless.
	for _, st := range rt.sortedActiveStages() {
		for _, t := range st.Tasks {
			if t.State == task.Pending {
				rt.resolveCacheLocation(t)
			}
		}
		rt.sched.StageSubmitted(st)
	}

	// 7. Redeliver the completions that landed while the driver was down,
	// in arrival order, through the normal completion path — exactly-once
	// counting falls out of the same State==Finished guards that protect
	// speculative races. A success's map-output registration was wiped by
	// the rebuild, so it is restored alongside the redelivery.
	orphans := rt.orphaned
	rt.orphaned = nil
	delivered := 0
	rt.redelivering = true
	for _, o := range orphans {
		if rt.appDone {
			break
		}
		if o.out == executor.Success {
			ot := o.r.Task()
			if d := ot.Demand.ShuffleWriteBytes; d > 0 && o.r.Stage().OutputNodeOf(ot.Index) == "" {
				o.r.Stage().RecordShuffleOutput(ot.Index, o.r.Metrics().Executor, d)
			}
		}
		rt.onTaskEnd(o.r, o.out)
		delivered++
	}
	rt.redelivering = false

	// 8. Reconcile, part two — losses: executors that are unreachable, or
	// that restarted under a new incarnation during the outage, go through
	// the normal executor-lost path (map-output rollback, resubmission).
	// Zombie attempts on them are fenced first so a node the driver gave
	// up on cannot later report a completion.
	rt.reconcileLost(s)

	// 9. Re-arm the periodic machinery on the live clock. Heartbeat
	// staleness restarts from now: the outage itself is not evidence
	// against any node.
	for _, n := range rt.Clu.Nodes {
		rt.lastHB[n.Name()] = rt.Eng.Now()
	}
	if rt.ownsSubstrate {
		rt.Mon.Resume()
	}
	rt.armWatchdog()
	rt.scheduleSpeculationScan()

	// 10. Resume.
	rt.DriverRecoveries++
	rt.Cfg.Tracer.RecoverySpan(rt.crashAt, rt.Eng.Now())
	rt.Cfg.Tracer.DriverRecovered(adopted, delivered, nrec)
	if rt.OnRecovered != nil {
		// Federation hook: survivors are adopted and orphans redelivered,
		// so the broker can tell which of its WAL-folded claims still back
		// a live attempt and chase the rest.
		rt.OnRecovered()
	}
	if !rt.appDone {
		rt.reschedule()
	}
}

// restoreFromState rebuilds every driver-side table from a replayed WAL
// fold, discarding whatever the crashed incarnation had in memory.
func (rt *Runtime) restoreFromState(s *wal.State) {
	rt.stages = make(map[int]*task.Stage)
	rt.stageOf = make(map[int]*task.Stage)
	rt.activeStages = make(map[int]*task.Stage)
	rt.submitted = make(map[int]bool)
	rt.resetRunning()
	rt.speculatable = make(map[int]*task.Task)

	rt.jobIdx = s.JobIdx
	if rt.jobIdx < 0 {
		rt.jobIdx = 0 // crashed before the first job record could land
	}
	if rt.jobIdx >= len(rt.app.Jobs) {
		rt.jobIdx = len(rt.app.Jobs) - 1
	}
	for j := 0; j <= rt.jobIdx; j++ {
		for _, st := range rt.app.Jobs[j].Stages {
			rt.stages[st.ID] = st
			for _, t := range st.Tasks {
				rt.stageOf[t.ID] = st
			}
		}
	}

	// Task states and per-stage completion/output registries. Only what
	// the log proves is kept: a task is finished iff its success record
	// survived the fold (rollbacks delete it), an output exists iff its
	// registration survived.
	for _, st := range rt.sortedStages() {
		st.ResetShuffleOutputs()
		done := 0
		for _, t := range st.Tasks {
			if s.Finished[t.ID] {
				t.State = task.Finished
				done++
			} else {
				t.State = task.Pending
			}
		}
		st.SetCompleted(done)
		outs := s.Outputs[st.ID]
		idxs := make([]int, 0, len(outs))
		for idx := range outs {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			if o := outs[idx]; o.Bytes > 0 {
				st.RecordShuffleOutput(idx, o.Node, o.Bytes)
			}
		}
	}
	for id := range s.Submitted {
		if st := rt.stages[id]; st != nil {
			rt.submitted[id] = true
			if !st.IsComplete() {
				rt.activeStages[id] = st
			}
		}
	}

	// Fault-tolerance tables.
	rt.lostExecs = make(map[string]bool)
	for n, lost := range s.LostExecs {
		if lost {
			rt.lostExecs[n] = true
		}
	}
	rt.lastInc = make(map[string]int)
	for n, inc := range s.LastInc {
		rt.lastInc[n] = inc
	}
	rt.failCount = make(map[int]int)
	for id, c := range s.FailCount {
		rt.failCount[id] = c
	}
	rt.resubmits = make(map[int]int)
	for id, c := range s.Resubmits {
		rt.resubmits[id] = c
	}
	if rt.bl != nil {
		rt.bl.restore(s.TaskNodeFailures, s.NodeFailures, s.Blacklist, s.Counters.NodesBlacklisted)
	}

	// Counters come from the log, not the dead process's memory.
	rt.LaunchCount = s.Counters.Launches
	rt.SpecCopies = s.Counters.SpecCopies
	rt.FetchFailures = s.Counters.FetchFailures
	rt.Resubmissions = s.Counters.Resubmissions
	rt.ExecutorsLost = s.Counters.ExecutorsLost
	rt.ExecutorsRejoined = s.Counters.ExecutorsRejoined

	rt.crashed = false
}

// adoptSurvivors walks the cluster in deterministic node order and
// re-adopts every in-flight attempt on executors that are reachable and
// still running the incarnation the log last saw. Each adoption is logged
// (KindTaskAdopted folds into the in-flight set without touching launch
// counters — the attempt's original launch record already counted it).
func (rt *Runtime) adoptSurvivors(s *wal.State) int {
	adopted := 0
	for _, n := range rt.Clu.Nodes {
		name := n.Name()
		ex := rt.Execs[name]
		if ex == nil || !rt.execReachable(name) || ex.Incarnation != s.LastInc[name] {
			continue
		}
		if rt.lostExecs[name] {
			// The log already declared this executor lost; its attempts
			// were killed pre-crash and anything still here is a zombie
			// handled by reconcileLost.
			continue
		}
		for _, r := range ex.Running() {
			t := r.Task()
			if _, mine := rt.stageOf[t.ID]; !mine {
				continue // a sibling application's attempt on the shared executor
			}
			if r.Done() {
				continue
			}
			if t.State == task.Finished {
				// A losing speculative copy whose winner succeeded before the
				// crash: the dead driver never got to cancel it. Kill it now,
				// exactly as the live driver would have at the winner's
				// completion, so it cannot run on and report a second success.
				r.Kill(false)
				rt.wlog.Append(wal.Record{Kind: wal.KindAttemptEnded,
					Task: t.ID, Node: name, Outcome: "killed"})
				continue
			}
			t.State = task.Running
			rt.setRunning(t.ID, append(rt.runningAtt[t.ID], r))
			rt.wlog.Append(wal.Record{Kind: wal.KindTaskAdopted,
				Task: t.ID, Stage: r.Stage().ID, Index: t.Index,
				Node: name, Spec: r.Speculative()})
			adopted++
		}
	}
	return adopted
}

// reconcileLost declares executors the recovered driver cannot trust lost:
// unreachable nodes (down, fail-stopped, or heartbeat-suppressed) and
// nodes whose executor incarnation changed during the outage. Their
// zombie attempts are fenced (killed silently) so they can never report,
// then the standard executor-lost path rolls back their map outputs.
func (rt *Runtime) reconcileLost(s *wal.State) {
	for _, n := range rt.Clu.Nodes {
		name := n.Name()
		ex := rt.Execs[name]
		if ex == nil {
			continue
		}
		if !rt.execReachable(name) {
			for _, r := range ex.Running() {
				if _, mine := rt.stageOf[r.Task().ID]; !mine {
					continue // a sibling application's attempt; not ours to fence
				}
				r.Kill(false)
			}
			if !rt.lostExecs[name] {
				// A node the provider reclaimed during the outage is an
				// announced loss even though the driver never heard the
				// notice: the preempted mark (set at kill, surviving the
				// in-memory restore) keeps the loss uncharged and lets
				// audits tell a drained instance from a crashed one.
				reason := "unreachable at driver recovery"
				if rt.preempted[name] {
					reason = "spot-preempted (reconciled)"
				}
				rt.executorLost(name, reason)
			}
			continue
		}
		if ex.Incarnation != s.LastInc[name] {
			// Restarted during the outage: the old incarnation's attempts
			// died with it. Record the new incarnation and reap the old
			// executor's state, mirroring noteHeartbeat's restart path.
			rt.lastInc[name] = ex.Incarnation
			rt.wlog.Append(wal.Record{Kind: wal.KindExecIncarnation, Node: name, Inc: ex.Incarnation})
			if !rt.lostExecs[name] {
				rt.executorLost(name, "executor restarted")
			}
		}
	}
}

// execReachable reports whether the recovered driver can talk to node's
// executor right now: the process is up and its heartbeats are not
// suppressed by a partition window.
func (rt *Runtime) execReachable(node string) bool {
	ex := rt.Execs[node]
	if ex == nil || ex.Down() || ex.FailStopped() {
		return false
	}
	if rt.inj != nil && rt.inj.Suppressed(node) {
		return false
	}
	return true
}

// sortedStages returns the restored stage registry in ID order.
func (rt *Runtime) sortedStages() []*task.Stage {
	ss := make([]*task.Stage, 0, len(rt.stages))
	for _, st := range rt.stages {
		ss = append(ss, st)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].ID < ss[j].ID })
	return ss
}
