// Package tracing is the structured event layer over the simulation: a
// collector on the virtual clock records typed spans and instants — task
// attempt lifecycle (queued → launched → per-phase execution →
// finished/killed), stage and job boundaries, speculation markers,
// fault-injection windows, executor loss/rejoin — plus a
// scheduler-decision audit record for every placement (the candidate set
// considered, per-candidate scores, the winning heuristic, and the
// rejection reason for each loser).
//
// The collector is zero-overhead when disabled: every method is safe on a
// nil receiver and returns immediately, so instrumented code paths carry a
// nil-check's cost and nothing else. Enabled, it allocates only appends on
// already-taken code paths — it schedules no events, consults no RNG, and
// iterates no maps while recording, so a traced run is behaviorally
// bit-identical to an untraced one.
//
// Determinism rules: every record carries (virtual time, sequence number)
// where the sequence is a collector-local counter incremented in emit
// order; exports sort by that key and serialize via encoding/json (which
// orders object keys), so two runs of the same seed produce byte-identical
// trace files.
package tracing

import (
	"fmt"

	"rupam/internal/simx"
	"rupam/internal/task"
)

// Collector accumulates trace records for one application run. The zero
// source of one is NewCollector; a nil *Collector is the disabled state.
type Collector struct {
	eng *simx.Engine
	seq uint64

	nodes   []nodeInfo
	nodeIdx map[string]int

	attempts       []*AttemptTrace
	attemptsByTask map[int][]*AttemptTrace
	decisions      []*Decision
	instants       []instant
	spans          []span

	queuedAt   map[int]float64 // last time each task entered a pending queue
	specMarked map[int]bool    // tasks already marked speculatable (dedup)

	openJobs   map[int]int // job ID → index into spans
	openStages map[int]int // stage ID → index into spans

	slots    map[string][]bool // per-node core-slot occupancy
	maxSlots map[string]int    // high-water slot count per node (thread metadata)

	maxTime float64
}

type nodeInfo struct {
	name  string
	cores int
}

// instant is a point event.
type instant struct {
	seq  uint64
	time float64
	name string
	cat  string
	node string // "" = driver
	args map[string]interface{}
}

// span is an interval event on the driver track (jobs, stages) or a node's
// fault track. Attempt spans are kept separately as AttemptTraces.
type span struct {
	seq        uint64
	start, end float64 // end < 0 while still open
	name       string
	cat        string
	node       string // "" = driver
	args       map[string]interface{}
}

// NewCollector returns an enabled, empty collector. It becomes useful once
// Bind attaches the virtual clock (the spark runtime does this on Run).
func NewCollector() *Collector {
	return &Collector{
		nodeIdx:        make(map[string]int),
		attemptsByTask: make(map[int][]*AttemptTrace),
		queuedAt:       make(map[int]float64),
		specMarked:     make(map[int]bool),
		openJobs:       make(map[int]int),
		openStages:     make(map[int]int),
		slots:          make(map[string][]bool),
		maxSlots:       make(map[string]int),
	}
}

// Enabled reports whether the collector is recording.
func (c *Collector) Enabled() bool { return c != nil }

// Bind attaches the virtual clock. Records emitted before binding are
// stamped at t=0.
func (c *Collector) Bind(eng *simx.Engine) {
	if c == nil {
		return
	}
	c.eng = eng
}

// RegisterNode declares a cluster node (in deterministic cluster order);
// the Chrome exporter assigns one pid per registered node.
func (c *Collector) RegisterNode(name string, cores int) {
	if c == nil {
		return
	}
	if _, ok := c.nodeIdx[name]; ok {
		return
	}
	c.nodeIdx[name] = len(c.nodes)
	c.nodes = append(c.nodes, nodeInfo{name: name, cores: cores})
}

func (c *Collector) now() float64 {
	if c.eng == nil {
		return 0
	}
	t := c.eng.Now()
	if t > c.maxTime {
		c.maxTime = t
	}
	return t
}

func (c *Collector) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// addInstant files one point event stamped with the next sequence number
// and the current virtual time. Callers check for a nil collector before
// building the name or args.
func (c *Collector) addInstant(name, cat, node string, args map[string]interface{}) {
	c.instants = append(c.instants, instant{
		seq: c.nextSeq(), time: c.now(),
		name: name, cat: cat, node: node, args: args,
	})
}

// EventCount returns the number of records collected so far (attempts,
// decisions, instants and spans).
func (c *Collector) EventCount() int {
	if c == nil {
		return 0
	}
	return len(c.attempts) + len(c.decisions) + len(c.instants) + len(c.spans)
}

// DecisionCount returns the number of committed placement decisions.
func (c *Collector) DecisionCount() int {
	if c == nil {
		return 0
	}
	return len(c.decisions)
}

// ---- driver lifecycle ------------------------------------------------------

// JobBegin opens a job span.
func (c *Collector) JobBegin(id int, name string) {
	if c == nil {
		return
	}
	c.openJobs[id] = len(c.spans)
	c.spans = append(c.spans, span{
		seq: c.nextSeq(), start: c.now(), end: -1,
		name: fmt.Sprintf("job %d (%s)", id, name), cat: "job",
	})
}

// JobEnd closes the job's span.
func (c *Collector) JobEnd(id int) {
	if c == nil {
		return
	}
	if i, ok := c.openJobs[id]; ok {
		c.spans[i].end = c.now()
		delete(c.openJobs, id)
	}
}

// StageBegin opens a stage span when the driver submits it.
func (c *Collector) StageBegin(st *task.Stage) {
	if c == nil {
		return
	}
	c.openStages[st.ID] = len(c.spans)
	c.spans = append(c.spans, span{
		seq: c.nextSeq(), start: c.now(), end: -1,
		name: fmt.Sprintf("stage %d (%s)", st.ID, st.Name), cat: "stage",
		args: map[string]interface{}{
			"job":   st.JobID,
			"tasks": len(st.Tasks),
			"kind":  st.Kind.String(),
		},
	})
}

// StageEnd closes the stage's span.
func (c *Collector) StageEnd(id int) {
	if c == nil {
		return
	}
	if i, ok := c.openStages[id]; ok {
		c.spans[i].end = c.now()
		delete(c.openStages, id)
	}
}

// TaskQueued records that a task entered a pending queue (stage submission
// or resubmission after a failure/rollback); the attempt trace reports the
// queued→launch wait from it.
func (c *Collector) TaskQueued(id int) {
	if c == nil {
		return
	}
	c.queuedAt[id] = c.now()
}

// SpeculatableMarked records the first time a task is marked a straggler.
// Subsequent marks of the same task are dropped — the straggler scan
// re-marks every interval.
func (c *Collector) SpeculatableMarked(id int) {
	if c == nil || c.specMarked[id] {
		return
	}
	c.specMarked[id] = true
	c.addInstant(fmt.Sprintf("speculatable task %d", id), "speculation", "", nil)
}

// ExecutorLost records the driver declaring a node's executor dead.
func (c *Collector) ExecutorLost(node, reason string) {
	if c == nil {
		return
	}
	c.addInstant("executor lost", "driver", node, map[string]interface{}{"reason": reason})
}

// ExecutorRejoined records a lost executor heartbeating again.
func (c *Collector) ExecutorRejoined(node string) {
	if c == nil {
		return
	}
	c.addInstant("executor rejoined", "driver", node, nil)
}

// DriverCrashed records the driver process dying; restartAfter is the
// scheduled downtime before recovery begins.
func (c *Collector) DriverCrashed(restartAfter float64) {
	if c == nil {
		return
	}
	c.addInstant("driver crashed", "driver", "", map[string]interface{}{"restart_after": restartAfter})
}

// DriverRecovered records the end of a crash-recovery replay: how many
// in-flight attempts were re-adopted from surviving executors, how many
// buffered executor results were delivered, and how many WAL records the
// rebuild folded.
func (c *Collector) DriverRecovered(adopted, delivered, walRecords int) {
	if c == nil {
		return
	}
	c.addInstant("driver recovered", "driver", "", map[string]interface{}{
		"adopted":     adopted,
		"delivered":   delivered,
		"wal_records": walRecords,
	})
}

// RecoverySpan records the driver's downtime window [crashAt, recoveredAt]
// on the driver track.
func (c *Collector) RecoverySpan(crashAt, recoveredAt float64) {
	if c == nil {
		return
	}
	if recoveredAt > c.maxTime {
		c.maxTime = recoveredAt
	}
	c.spans = append(c.spans, span{
		seq: c.nextSeq(), start: crashAt, end: recoveredAt,
		name: "driver recovery", cat: "recovery",
	})
}

// JobAborted records a structured job abort.
func (c *Collector) JobAborted(reason string) {
	if c == nil {
		return
	}
	c.addInstant("job aborted", "driver", "", map[string]interface{}{"reason": reason})
}

// FaultSpan records an injected fault window [now, now+duration] on a
// node's fault track. duration <= 0 means open-ended (a permanent crash);
// the exporter closes it at the trace's end.
func (c *Collector) FaultSpan(node, kind, detail string, duration float64) {
	if c == nil {
		return
	}
	start := c.now()
	end := -1.0
	if duration > 0 {
		end = start + duration
		if end > c.maxTime {
			c.maxTime = end
		}
	}
	args := map[string]interface{}{}
	if detail != "" {
		args["detail"] = detail
	}
	c.spans = append(c.spans, span{
		seq: c.nextSeq(), start: start, end: end,
		name: kind, cat: "fault", node: node, args: args,
	})
}

// ---- task attempts ---------------------------------------------------------

// AttemptTrace follows one task attempt from launch to its terminal state,
// recording phase boundaries as the executor reaches them. A nil
// *AttemptTrace (tracing disabled) ignores all calls.
type AttemptTrace struct {
	c *Collector

	seq         uint64
	TaskID      int
	StageID     int
	JobID       int
	Index       int
	Node        string
	Locality    string
	Speculative bool
	QueuedAt    float64 // -1 when the queue time was not observed
	Launch      float64
	End         float64 // 0 while running
	Outcome     string
	slot        int
	phases      []phaseRec
}

type phaseRec struct {
	name  string
	start float64
}

// AttemptStarted opens an attempt trace; the executor calls it from Launch.
func (c *Collector) AttemptStarted(t *task.Task, st *task.Stage, node string, locality string, speculative bool) *AttemptTrace {
	if c == nil {
		return nil
	}
	a := &AttemptTrace{
		c:           c,
		seq:         c.nextSeq(),
		TaskID:      t.ID,
		StageID:     st.ID,
		JobID:       st.JobID,
		Index:       t.Index,
		Node:        node,
		Locality:    locality,
		Speculative: speculative,
		QueuedAt:    -1,
		Launch:      c.now(),
		slot:        c.takeSlot(node),
	}
	if q, ok := c.queuedAt[t.ID]; ok {
		a.QueuedAt = q
	}
	a.phases = append(a.phases, phaseRec{name: "dispatch", start: a.Launch})
	c.attempts = append(c.attempts, a)
	c.attemptsByTask[t.ID] = append(c.attemptsByTask[t.ID], a)
	return a
}

// takeSlot assigns the lowest free core-slot index on node (slots beyond
// the core count appear under over-commit and are released on End).
func (c *Collector) takeSlot(node string) int {
	slots := c.slots[node]
	for i, used := range slots {
		if !used {
			slots[i] = true
			return i
		}
	}
	c.slots[node] = append(slots, true)
	if len(c.slots[node]) > c.maxSlots[node] {
		c.maxSlots[node] = len(c.slots[node])
	}
	return len(c.slots[node]) - 1
}

// Phase marks the attempt entering a named execution phase; the previous
// phase ends here.
func (a *AttemptTrace) Phase(name string) {
	if a == nil || a.End != 0 {
		return
	}
	a.phases = append(a.phases, phaseRec{name: name, start: a.c.now()})
}

// Finish closes the attempt with its terminal outcome and releases the
// node's display slot.
func (a *AttemptTrace) Finish(outcome string) {
	if a == nil || a.End != 0 {
		return
	}
	a.End = a.c.now()
	a.Outcome = outcome
	if slots := a.c.slots[a.Node]; a.slot < len(slots) {
		slots[a.slot] = false
	}
}
