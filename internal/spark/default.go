package spark

import (
	"fmt"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/hdfs"
	"rupam/internal/monitor"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// DefaultScheduler reproduces Spark's stock task scheduler: one task slot
// per CPU core, a single static executor size on every node, and delay
// scheduling over locality levels (a task set waits spark.locality.wait
// seconds at each level before accepting worse locality). It is
// deliberately blind to CPU speed, memory pressure, disk class, network
// bandwidth and GPUs — the mismatch the paper's §II demonstrates.
type DefaultScheduler struct {
	rt *Runtime

	pending    map[int][]*task.Task // pending tasks by stage ID
	order      []int                // stage submission order
	allowed    map[int]hdfs.Locality
	lastLaunch map[int]float64
	rot        int

	// oomBackoff halves a stage's per-node parallelism each time its
	// tasks die of OOM — the task-failure backoff real Spark gets from
	// TaskSetManager failure tracking and executor blacklisting. Without
	// it, a memory-starved stage relaunches a full slot-width wave that
	// OOMs (and crashes workers) forever. Successes slowly claw the
	// parallelism back (AIMD), so a stage that was merely unlucky does
	// not stay throttled — and one that truly doesn't fit keeps paying.
	oomBackoff map[int]int
	// successStreak counts a stage's successes since its last OOM, for
	// the backoff decay.
	successStreak map[int]int
	// runningByNodeStage counts this scheduler's in-flight attempts per
	// node per stage, for the backoff cap.
	runningByNodeStage map[string]map[int]int
}

// NewDefaultScheduler returns Spark's stock policy.
func NewDefaultScheduler() *DefaultScheduler {
	return &DefaultScheduler{
		pending:            make(map[int][]*task.Task),
		allowed:            make(map[int]hdfs.Locality),
		lastLaunch:         make(map[int]float64),
		oomBackoff:         make(map[int]int),
		successStreak:      make(map[int]int),
		runningByNodeStage: make(map[string]map[int]int),
	}
}

// Name implements Scheduler.
func (s *DefaultScheduler) Name() string { return "spark" }

// Bind implements Scheduler.
func (s *DefaultScheduler) Bind(rt *Runtime) { s.rt = rt }

// localityWait is the delay-scheduling relaxation timeout per locality
// level, in seconds (spark.locality.wait).
const localityWait float64 = 3

// StaticHeapBytes is stock Spark's executor heap, the same on every node
// and sized to fit the smallest machine: the paper sets 14 GB for the
// 16 GB thor machines.
const StaticHeapBytes int64 = 14 * cluster.GB

// HeapFor implements Scheduler: StaticHeapBytes everywhere.
func (s *DefaultScheduler) HeapFor(node *cluster.Node) int64 {
	return StaticHeapBytes
}

// StageSubmitted implements Scheduler.
func (s *DefaultScheduler) StageSubmitted(st *task.Stage) {
	s.pending[st.ID] = append([]*task.Task(nil), st.Tasks...)
	s.order = append(s.order, st.ID)
	s.allowed[st.ID] = bestPossibleLevel(st)
	s.lastLaunch[st.ID] = s.rt.Eng.Now()
}

// bestPossibleLevel returns the tightest locality the stage's tasks can
// hope for, which is where delay scheduling starts waiting.
func bestPossibleLevel(st *task.Stage) hdfs.Locality {
	best := hdfs.Any
	for _, t := range st.Tasks {
		if t.CachedOn != "" {
			return hdfs.ProcessLocal
		}
		if len(t.PrefNodes) > 0 && best > hdfs.NodeLocal {
			best = hdfs.NodeLocal
		}
	}
	return best
}

// Resubmit implements Scheduler. A rollback can resurrect a stage the
// scheduler no longer tracks: after a driver recovery only the stages
// active at restore time are re-handed over, and the recovery reconcile
// may then roll back a stage that was complete at the crash. Register such
// a stage as if freshly submitted, or its tasks would sit in a queue no
// dispatch round ever visits.
func (s *DefaultScheduler) Resubmit(t *task.Task, st *task.Stage) {
	if _, known := s.allowed[st.ID]; !known {
		s.order = append(s.order, st.ID)
		s.allowed[st.ID] = bestPossibleLevel(st)
		s.lastLaunch[st.ID] = s.rt.Eng.Now()
	}
	s.pending[st.ID] = append(s.pending[st.ID], t)
}

// TaskEnded implements Scheduler: maintain per-node stage counts and back
// off a stage's parallelism when its tasks OOM.
func (s *DefaultScheduler) TaskEnded(t *task.Task, r *executor.Run, out executor.Outcome) {
	node := r.Metrics().Executor
	if m := s.runningByNodeStage[node]; m != nil && m[t.StageID] > 0 {
		m[t.StageID]--
	}
	switch out {
	case executor.OOM:
		s.successStreak[t.StageID] = 0
		b := s.oomBackoff[t.StageID]
		if b == 0 {
			b = 1
		}
		if b < 16 {
			s.oomBackoff[t.StageID] = b * 2
		}
	case executor.Success:
		if s.oomBackoff[t.StageID] > 1 {
			s.successStreak[t.StageID]++
			if s.successStreak[t.StageID] >= 12 {
				s.successStreak[t.StageID] = 0
				s.oomBackoff[t.StageID] /= 2
			}
		}
	}
}

// stageCap returns the per-node concurrency allowed for a stage on a node.
func (s *DefaultScheduler) stageCap(node string, stageID int) int {
	b := s.oomBackoff[stageID]
	if b <= 1 {
		return 1 << 30 // uncapped until the stage misbehaves
	}
	cores := s.rt.Clu.Node(node).Spec.Cores
	cap := cores / b
	if cap < 1 {
		cap = 1
	}
	return cap
}

func (s *DefaultScheduler) noteLaunch(node string, stageID int) {
	m := s.runningByNodeStage[node]
	if m == nil {
		m = make(map[int]int)
		s.runningByNodeStage[node] = m
	}
	m[stageID]++
}

// Heartbeat implements Scheduler (the stock scheduler ignores resource
// reports; the heartbeat-triggered Schedule call is its offer).
func (s *DefaultScheduler) Heartbeat(node string, nm *monitor.NodeMetrics) {}

// PendingTasks counts queued tasks still genuinely pending — the chaos
// harness's queue-drain invariant expects zero after a completed run.
func (s *DefaultScheduler) PendingTasks() int {
	n := 0
	for _, q := range s.pending {
		for _, t := range q {
			if t.State == task.Pending {
				n++
			}
		}
	}
	return n
}

// ExecutorLost implements ExecutorLossAware: forget the node's in-flight
// accounting (the runtime already failed the attempts themselves).
func (s *DefaultScheduler) ExecutorLost(node string) {
	delete(s.runningByNodeStage, node)
}

// ExecutorSetChanged implements ExecutorSetAware: re-derive each pending
// stage's delay-scheduling state against the executors that are usable
// *now*. Without this, a stage whose preferred nodes all left the usable
// set (executor loss, or a dynamic-allocation lease revoked) stalls at a
// stale locality level: every sibling launch re-arms the stage-wide
// lastLaunch timer, so the relaxation clock never expires while the stuck
// task's wait can't ever be satisfied. Conversely, when better nodes come
// back (rejoin, scale-up), the level tightens again with a fresh wait so
// the stage actually uses the restored locality.
func (s *DefaultScheduler) ExecutorSetChanged() {
	now := s.rt.Eng.Now()
	for id, q := range s.pending {
		reachable, pending := hdfs.Any+1, false
		for _, t := range q {
			if t.State != task.Pending {
				continue
			}
			pending = true
			best := hdfs.Any
			if t.CachedOn != "" && s.rt.CanRunOn(t.CachedOn) {
				best = hdfs.ProcessLocal
			} else {
				for _, p := range t.PrefNodes {
					if s.rt.CanRunOn(p) {
						best = hdfs.NodeLocal
						break
					}
				}
			}
			if best < reachable {
				reachable = best
			}
		}
		if !pending || reachable == s.allowed[id] {
			continue
		}
		s.allowed[id] = reachable
		s.lastLaunch[id] = now
	}
}

// DriverRecovery implements RecoveryAware: the stock scheduler keeps no
// learned state worth restoring, so a driver crash simply resets every
// queue and counter. The runtime re-hands active stages over through
// StageSubmitted right after, which refills the queues from the replayed
// write-ahead-log truth.
func (s *DefaultScheduler) DriverRecovery(ws *wal.State) {
	s.pending = make(map[int][]*task.Task)
	s.order = nil
	s.allowed = make(map[int]hdfs.Locality)
	s.lastLaunch = make(map[int]float64)
	s.rot = 0
	s.oomBackoff = make(map[int]int)
	s.successStreak = make(map[int]int)
	s.runningByNodeStage = make(map[string]map[int]int)
}

// Schedule implements Scheduler: fill free core slots with the
// best-locality pending task each node can get, then spend leftover slots
// on speculative copies.
func (s *DefaultScheduler) Schedule() {
	rt := s.rt
	now := rt.Eng.Now()

	// Delay-scheduling relaxation.
	for id, lvl := range s.allowed {
		if len(s.pending[id]) == 0 {
			continue
		}
		if lvl < hdfs.Any && now-s.lastLaunch[id] > localityWait {
			s.allowed[id] = lvl + 1
			s.lastLaunch[id] = now
		}
	}

	nodes := rt.Clu.Nodes
	for launchedAny := true; launchedAny; {
		launchedAny = false
		s.rot++
		for i := range nodes {
			node := nodes[(i+s.rot)%len(nodes)]
			name := node.Name()
			ex := rt.Execs[name]
			if ex == nil || !rt.CanRunOn(name) || ex.RunningTasks() >= node.Spec.Cores {
				continue
			}
			if s.launchOn(name) {
				launchedAny = true
			}
		}
	}
}

// launchOn places at most one task on the node; speculative copies fill
// slots when no pending task qualifies.
func (s *DefaultScheduler) launchOn(node string) bool {
	rt := s.rt
	d := rt.NewDecision(s.Name(), node)
	// Pending tasks first, stages in submission order (FIFO).
	for _, id := range s.order {
		// Compact away queue entries that are no longer pending — tasks
		// finished or running elsewhere (a stage re-handed over by driver
		// recovery enqueues all of its tasks, and a task can be enqueued
		// twice by a resubmit racing the re-hand-over). Left in place they
		// would be picked, refused by Launch, and re-appended forever,
		// starving the genuinely pending work behind them.
		q := s.pending[id]
		kept := q[:0]
		for _, t := range q {
			if t.State == task.Pending {
				kept = append(kept, t)
			}
		}
		q = kept
		s.pending[id] = q
		if len(q) == 0 {
			continue
		}
		if s.runningByNodeStage[node][id] >= s.stageCap(node, id) {
			if d != nil {
				d.Note("stage %d skipped: oom-backoff cap on %s", id, node)
			}
			continue // stage backed off on this node after OOMs
		}
		if st := rt.stages[id]; st != nil && !rt.StageReady(st) {
			if d != nil {
				d.Note("stage %d skipped: awaiting parent recompute", id)
			}
			continue // parent outputs lost; a rollback is recomputing them
		}
		allowed := s.allowed[id]
		bestIdx, bestLvl := -1, hdfs.Any+1
		for i, t := range q {
			if rt.TaskBlockedOn(t.ID, node) {
				d.Candidate(t.ID, t.LocalityOn(node).String(), "blacklisted-pairing", "")
				continue // blacklisted pairing
			}
			lvl := t.LocalityOn(node)
			if lvl <= allowed && lvl < bestLvl {
				bestIdx, bestLvl = i, lvl
				d.Candidate(t.ID, lvl.String(), "", "")
			} else if d != nil {
				reason, detail := "lost-on-locality", ""
				if lvl > allowed {
					reason = "waiting-for-locality"
					detail = fmt.Sprintf("has %s, stage allows up to %s", lvl, allowed)
				}
				d.Candidate(t.ID, lvl.String(), reason, detail)
			}
		}
		if bestIdx < 0 {
			continue
		}
		t := q[bestIdx]
		s.pending[id] = append(q[:bestIdx], q[bestIdx+1:]...)
		if rt.Launch(t, node, executor.Options{Locality: t.LocalityOn(node)}) != nil {
			d.SetWinner(t.ID, "delay-scheduling", bestLvl.String(), false)
			d.Commit()
			s.noteLaunch(node, id)
			s.lastLaunch[id] = rt.Eng.Now()
			return true
		}
		// Launch refused (executor just went down): put it back.
		s.pending[id] = append(s.pending[id], t)
		return false
	}
	// No pending work for this node: try a speculative copy. The copy
	// must not land back on the straggler's own node, a degraded node, or
	// a blacklisted pairing, and respects the per-stage copy cap —
	// SpecCopyAllowed checks all four.
	for _, t := range rt.SpeculativeTasks() {
		if len(rt.RunningAttempts(t)) != 1 || !rt.SpecCopyAllowed(t, node) {
			d.Candidate(t.ID, t.LocalityOn(node).String(), "spec-copy-not-allowed", "")
			continue
		}
		if rt.Launch(t, node, executor.Options{
			Locality:    t.LocalityOn(node),
			Speculative: true,
		}) != nil {
			// Cleared only after a successful launch: a refused launch must
			// leave the straggler in the set for the next pass.
			rt.ClearSpeculatable(t)
			d.SetWinner(t.ID, "speculative-copy", t.LocalityOn(node).String(), true)
			d.Commit()
			s.noteLaunch(node, t.StageID)
			return true
		}
		return false
	}
	return false
}
