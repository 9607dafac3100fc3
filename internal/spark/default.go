package spark

import (
	"cmp"
	"fmt"
	"slices"

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

	// queued holds the stages with a non-empty queue, in submission
	// order; every offer scans it. byID finds any stage handed over since
	// the last driver recovery, for the completion and resubmit paths.
	queued []*stageQueue
	byID   map[int]*stageQueue
	seq    int // submission counter behind stageQueue.seq
	rot    int

	// runningByNodeStage counts this scheduler's in-flight attempts per
	// node per stage, for the backoff cap.
	runningByNodeStage map[string]map[int]int
}

// stageQueue is the default scheduler's state for one stage.
type stageQueue struct {
	st  *task.Stage
	seq int // submission order

	// pending may also hold tasks that have since launched or finished;
	// offers compact them away lazily.
	pending    []*task.Task
	allowed    hdfs.Locality // delay-scheduling level
	lastLaunch float64       // start of the current locality wait

	// oomBackoff halves the stage's per-node parallelism each time its
	// tasks die of OOM — the task-failure backoff real Spark gets from
	// TaskSetManager failure tracking and executor blacklisting. Without
	// it, a memory-starved stage relaunches a full slot-width wave that
	// OOMs (and crashes workers) forever. Successes slowly claw the
	// parallelism back (AIMD), so a stage that was merely unlucky does
	// not stay throttled — and one that truly doesn't fit keeps paying.
	oomBackoff int
	// successStreak counts the stage's successes since its last OOM, for
	// the backoff decay.
	successStreak int
}

// NewDefaultScheduler returns Spark's stock policy.
func NewDefaultScheduler() *DefaultScheduler {
	return &DefaultScheduler{
		byID:               make(map[int]*stageQueue),
		runningByNodeStage: make(map[string]map[int]int),
	}
}

// Name implements Scheduler.
func (s *DefaultScheduler) Name() string { return "spark" }

// Bind implements Scheduler.
func (s *DefaultScheduler) Bind(rt *Runtime) { s.rt = rt }

// RelocatesCache implements CacheRelocator: stock Spark leaves a cached
// partition where it was written and reads it remotely.
func (s *DefaultScheduler) RelocatesCache() bool { return false }

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
	sq := s.stage(st)
	s.setPending(sq, append([]*task.Task(nil), st.Tasks...))
	sq.allowed = bestPossibleLevel(st)
	sq.lastLaunch = s.rt.Eng.Now()
}

// stage returns st's record, registering it in submission order if it
// has none yet or only an OOM backoff from before its submission.
func (s *DefaultScheduler) stage(st *task.Stage) *stageQueue {
	sq := s.byID[st.ID]
	if sq == nil {
		sq = &stageQueue{st: st}
		s.byID[st.ID] = sq
	}
	if sq.seq == 0 {
		s.seq++
		sq.seq = s.seq
	}
	return sq
}

// setPending replaces sq's queue and keeps queued listing exactly the
// stages whose queue is non-empty, in submission order.
func (s *DefaultScheduler) setPending(sq *stageQueue, q []*task.Task) {
	was := len(sq.pending) > 0
	sq.pending = q
	switch now := len(q) > 0; {
	case now && !was:
		i, _ := slices.BinarySearchFunc(s.queued, sq.seq, func(x *stageQueue, seq int) int {
			return cmp.Compare(x.seq, seq)
		})
		s.queued = slices.Insert(s.queued, i, sq)
	case was && !now:
		s.queued = slices.DeleteFunc(s.queued, func(x *stageQueue) bool { return x == sq })
	}
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
	sq := s.byID[st.ID]
	if sq == nil || sq.seq == 0 {
		sq = s.stage(st)
		sq.allowed = bestPossibleLevel(st)
		sq.lastLaunch = s.rt.Eng.Now()
	}
	s.setPending(sq, append(sq.pending, t))
}

// TaskEnded implements Scheduler: maintain per-node stage counts and back
// off a stage's parallelism when its tasks OOM.
func (s *DefaultScheduler) TaskEnded(t *task.Task, r *executor.Run, out executor.Outcome) {
	node := r.Metrics().Executor
	if m := s.runningByNodeStage[node]; m != nil && m[t.StageID] > 0 {
		m[t.StageID]--
	}
	sq := s.byID[t.StageID]
	switch out {
	case executor.OOM:
		if sq == nil {
			// A stage not handed over since the last driver recovery (an
			// orphaned attempt) keeps its backoff for a later resubmit;
			// seq 0 leaves it unregistered until then.
			sq = &stageQueue{st: r.Stage()}
			s.byID[t.StageID] = sq
		}
		sq.successStreak = 0
		if sq.oomBackoff == 0 {
			sq.oomBackoff = 1
		}
		if sq.oomBackoff < 16 {
			sq.oomBackoff *= 2
		}
	case executor.Success:
		if sq != nil && sq.oomBackoff > 1 {
			sq.successStreak++
			if sq.successStreak >= 12 {
				sq.successStreak = 0
				sq.oomBackoff /= 2
			}
		}
	}
}

// backedOff reports whether sq has reached its OOM-backoff cap on node:
// per-node concurrency of cores/oomBackoff (at least 1) once the stage's
// tasks have died of OOM, uncapped before.
func (s *DefaultScheduler) backedOff(sq *stageQueue, node string) bool {
	if sq.oomBackoff <= 1 {
		return false
	}
	cap := max(s.rt.Clu.Node(node).Spec.Cores/sq.oomBackoff, 1)
	return s.runningByNodeStage[node][sq.st.ID] >= cap
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
	for _, sq := range s.queued {
		for _, t := range sq.pending {
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
	for _, sq := range s.queued {
		reachable, pending := hdfs.Any+1, false
		for _, t := range sq.pending {
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
		if !pending || reachable == sq.allowed {
			continue
		}
		sq.allowed = reachable
		sq.lastLaunch = now
	}
}

// DriverRecovery implements RecoveryAware: the stock scheduler keeps no
// learned state worth restoring, so a driver crash simply resets every
// queue and counter. The runtime re-hands active stages over through
// StageSubmitted right after, which refills the queues from the replayed
// write-ahead-log truth.
func (s *DefaultScheduler) DriverRecovery(ws *wal.State) {
	s.queued = nil
	s.byID = make(map[int]*stageQueue)
	s.seq = 0
	s.rot = 0
	s.runningByNodeStage = make(map[string]map[int]int)
}

// Schedule implements Scheduler: fill free core slots with the
// best-locality pending task each node can get, then spend leftover slots
// on speculative copies.
func (s *DefaultScheduler) Schedule() {
	rt := s.rt
	now := rt.Eng.Now()

	// Delay-scheduling relaxation.
	for _, sq := range s.queued {
		if sq.allowed < hdfs.Any && now-sq.lastLaunch > localityWait {
			sq.allowed++
			sq.lastLaunch = now
		}
	}

	nodes := rt.Clu.Nodes
	for launchedAny := true; launchedAny; {
		launchedAny = false
		s.rot++
		for i := range nodes {
			k := (i + s.rot) % len(nodes)
			node := nodes[k]
			name := node.Name()
			// A full node is skipped before CanRunOn's map lookups; both
			// checks are pure, so their order does not matter.
			ex := rt.ExecutorAt(k)
			if ex == nil || ex.RunningTasks() >= node.Spec.Cores || !rt.CanRunOn(name) {
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
	for qi := 0; qi < len(s.queued); qi++ {
		sq := s.queued[qi]
		// A stage backed off on this node after OOMs, or one whose parent
		// outputs a rollback is recomputing, offers no candidate.
		capped := s.backedOff(sq, node)
		skip := capped || !rt.StageReady(sq.st)
		// One pass compacts away queue entries that are no longer pending
		// and picks the best candidate among the rest. Stale entries are
		// tasks finished or running elsewhere (a stage re-handed over by
		// driver recovery enqueues all of its tasks, and a task can be
		// enqueued twice by a resubmit racing the re-hand-over). Left in
		// place they would be picked, refused by Launch, and re-appended
		// forever, starving the genuinely pending work behind them.
		//
		// The blacklist is consulted only for a candidate that would become
		// the best, which picks the same task as checking every one; with a
		// decision audit attached every candidate is checked, so the audit
		// lists each blacklisted pairing.
		allowed := sq.allowed
		bestIdx, bestLvl := -1, hdfs.Any+1
		q := sq.pending[:0]
		for _, t := range sq.pending {
			if t.State != task.Pending {
				continue
			}
			q = append(q, t)
			if skip {
				continue
			}
			lvl := t.LocalityOn(node)
			wins := lvl <= allowed && lvl < bestLvl
			if (wins || d != nil) && rt.TaskBlockedOn(t.ID, node) {
				if d != nil {
					d.Candidate(t.ID, lvl.String(), "blacklisted-pairing", "")
				}
				continue // blacklisted pairing
			}
			if wins {
				bestIdx, bestLvl = len(q)-1, lvl
				if d != nil {
					d.Candidate(t.ID, lvl.String(), "", "")
				}
			} else if d != nil {
				reason, detail := "lost-on-locality", ""
				if lvl > allowed {
					reason = "waiting-for-locality"
					detail = fmt.Sprintf("has %s, stage allows up to %s", lvl, allowed)
				}
				d.Candidate(t.ID, lvl.String(), reason, detail)
			}
		}
		if len(q) == 0 {
			s.setPending(sq, q)
			qi-- // the stage left queued
			continue
		}
		if skip {
			sq.pending = q
			if d != nil && capped {
				d.Note("stage %d skipped: oom-backoff cap on %s", sq.st.ID, node)
			} else if d != nil {
				d.Note("stage %d skipped: awaiting parent recompute", sq.st.ID)
			}
			continue
		}
		if bestIdx < 0 {
			sq.pending = q
			continue
		}
		t := q[bestIdx]
		s.setPending(sq, append(q[:bestIdx], q[bestIdx+1:]...))
		if rt.Launch(t, node, executor.Options{Locality: t.LocalityOn(node)}) != nil {
			d.SetWinner(t.ID, "delay-scheduling", bestLvl.String(), false)
			d.Commit()
			s.noteLaunch(node, sq.st.ID)
			sq.lastLaunch = rt.Eng.Now()
			return true
		}
		// Launch refused (executor just went down): put it back.
		s.setPending(sq, append(sq.pending, t))
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
