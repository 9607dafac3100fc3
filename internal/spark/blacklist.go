package spark

import "rupam/internal/simx"

// BlacklistConfig tunes the driver's node blacklisting, modeled on Spark's
// BlacklistTracker (spark.blacklist.*). Disabled by default: stock Spark
// shipped it off, and the no-fault experiments must not change behavior.
type BlacklistConfig struct {
	// Enabled turns the tracker on.
	Enabled bool
}

// A node is blacklisted after blacklistMaxNodeFailures task failures on
// it, across tasks, for blacklistTimeout seconds
// (spark.blacklist.timeout).
const (
	blacklistMaxNodeFailures         = 4
	blacklistTimeout         float64 = 60
)

// blacklist tracks per-task-per-node and per-node failure counts and the
// timed node blacklist they feed.
type blacklist struct {
	eng *simx.Engine

	// taskNode counts failures of a task on a node (task ID → node →
	// count); these are permanent for the task's lifetime, like Spark's
	// per-taskset tracking.
	taskNode map[int]map[string]int
	// nodeFailures counts task failures per node since the node was last
	// blacklisted.
	nodeFailures map[string]int
	// until holds each node's blacklist expiry time.
	until map[string]float64
}

func newBlacklist(eng *simx.Engine) *blacklist {
	return &blacklist{
		eng:          eng,
		taskNode:     make(map[int]map[string]int),
		nodeFailures: make(map[string]int),
		until:        make(map[string]float64),
	}
}

// noteFailure records one failure of task taskID on node, activating the
// node blacklist when the node crosses its threshold. It reports whether
// this failure activated the blacklist and, if so, the absolute expiry
// time — the caller logs activations to the write-ahead log so recovery
// can restore the deadline as an absolute virtual-clock time rather than
// re-arming it from recovery time.
func (b *blacklist) noteFailure(taskID int, node string) (activated bool, until float64) {
	per := b.taskNode[taskID]
	if per == nil {
		per = make(map[string]int)
		b.taskNode[taskID] = per
	}
	per[node]++
	b.nodeFailures[node]++
	if b.nodeFailures[node] >= blacklistMaxNodeFailures && !b.nodeBlacklisted(node) {
		b.until[node] = b.eng.Now() + blacklistTimeout
		b.nodeFailures[node] = 0
		return true, b.until[node]
	}
	return false, 0
}

// restore reloads the tracker's state from replayed write-ahead-log
// history. Expiry deadlines are absolute virtual-clock times carried over
// verbatim: a node blacklisted at T with TTL D becomes usable at exactly
// T+D whether or not the driver crashed in between.
func (b *blacklist) restore(taskNode map[int]map[string]int, nodeFailures map[string]int, until map[string]float64) {
	b.taskNode = make(map[int]map[string]int)
	for id, per := range taskNode {
		cp := make(map[string]int, len(per))
		for n, c := range per {
			cp[n] = c
		}
		b.taskNode[id] = cp
	}
	b.nodeFailures = make(map[string]int)
	for n, c := range nodeFailures {
		b.nodeFailures[n] = c
	}
	b.until = make(map[string]float64)
	for n, u := range until {
		b.until[n] = u
	}
}

// nodeBlacklisted reports whether node is currently blacklisted.
func (b *blacklist) nodeBlacklisted(node string) bool {
	return b.until[node] > b.eng.Now()
}

// maxTaskFailuresPerNode blocks a specific task from a node after this
// many failures of that task there.
const maxTaskFailuresPerNode = 2

// taskBlocked reports whether taskID may not run on node.
func (b *blacklist) taskBlocked(taskID int, node string) bool {
	return b.taskNode[taskID][node] >= maxTaskFailuresPerNode
}
