package wal

import (
	"encoding/json"
	"strconv"
	"strings"
)

// Attempt is one in-flight task attempt as the log last saw it.
type Attempt struct {
	Node string `json:"node"`
	Spec bool   `json:"spec,omitempty"`
}

// Claim is one federation placement claim as the log last saw it. State is
// "proposed" (PROPOSE sent, no verdict yet), "committed" (agent accepted
// and the commit is in flight or acked), or "bound" (the claim's task
// attempt actually launched).
type Claim struct {
	State string `json:"state"`
	Task  int    `json:"task"`
	Node  string `json:"node"`
	Slots int    `json:"slots"`
}

// Output is one registered map output (partition → location).
type Output struct {
	Node  string `json:"node"`
	Bytes int64  `json:"bytes"`
}

// Counters are the driver's WAL-covered accounting counters. Launches in
// particular must round-trip exactly: the chaos invariant battery checks
// that per-task attempt metrics sum to the launch counter across a crash.
// The driver's own accounting (spark.Counters) embeds this struct, so a
// recovery restores the covered counters in one assignment.
type Counters struct {
	Launches          int `json:"launches"`
	SpecCopies        int `json:"spec_copies"`
	FetchFailures     int `json:"fetch_failures"`
	Resubmissions     int `json:"resubmissions"`
	ExecutorsLost     int `json:"executors_lost"`
	ExecutorsRejoined int `json:"executors_rejoined"`
	NodesBlacklisted  int `json:"nodes_blacklisted"`
}

// State is the replayed driver state: the pure fold of a record stream.
// Everything in it is keyed by stable IDs (task/stage/job ints, node
// names) so it is independent of in-memory object identity, and Encode is
// canonical (encoding/json sorts map keys) so replay is byte-exact.
type State struct {
	Seq              uint64                     `json:"seq"`
	T                float64                    `json:"t"`
	JobIdx           int                        `json:"job_idx"` // highest submitted job, -1 before the first
	Submitted        map[int]bool               `json:"submitted,omitempty"`
	Finished         map[int]bool               `json:"finished,omitempty"`
	Running          map[int][]Attempt          `json:"running,omitempty"`
	Outputs          map[int]map[int]Output     `json:"outputs,omitempty"`
	FailCount        map[int]int                `json:"fail_count,omitempty"`
	Resubmits        map[int]int                `json:"resubmits,omitempty"`
	TaskNodeFailures map[int]map[string]int     `json:"task_node_failures,omitempty"`
	NodeFailures     map[string]int             `json:"node_failures,omitempty"`
	Blacklist        map[string]float64         `json:"blacklist,omitempty"` // node → absolute virtual-clock expiry
	LostExecs        map[string]bool            `json:"lost_execs,omitempty"`
	LastInc          map[string]int             `json:"last_inc,omitempty"`
	CharDB           map[string]json.RawMessage `json:"chardb,omitempty"` // "signature|partition" → persisted record
	Claims           map[string]Claim           `json:"claims,omitempty"` // claim ID → live placement claim
	ClaimSeq         uint64                     `json:"claim_seq,omitempty"`
	Counters         Counters                   `json:"counters"`
}

// NewState returns the empty pre-application state.
func NewState() *State { return &State{JobIdx: -1} }

// Apply folds one record into the state. The fold is total: unknown kinds
// and fields are no-ops (logs holding the retired audit-only kinds still
// replay), and attempt removals tolerate absence, so replaying any valid
// prefix of a log never fails.
func (s *State) Apply(r *Record) {
	s.Seq, s.T = r.Seq, r.T
	switch r.Kind {
	case KindSnapshot:
		var snap State
		if json.Unmarshal(r.Snapshot, &snap) == nil {
			*s = snap
			s.Seq, s.T = r.Seq, r.T
		}
	case KindJobSubmitted:
		if r.Job > s.JobIdx {
			s.JobIdx = r.Job
		}
	case KindStageSubmitted:
		if s.Submitted == nil {
			s.Submitted = make(map[int]bool)
		}
		s.Submitted[r.Stage] = true
	case KindTaskLaunched:
		s.addAttempt(r)
		s.Counters.Launches++
		if r.Spec {
			s.Counters.SpecCopies++
		}
	case KindTaskAdopted:
		// A recovery re-registration of an attempt whose task-launched
		// record already counted it: no counter movement.
		s.addAttempt(r)
	case KindTaskSucceeded:
		if s.Finished == nil {
			s.Finished = make(map[int]bool)
		}
		s.Finished[r.Task] = true
		s.removeAttempt(r.Task, r.Node)
		if r.Bytes > 0 {
			if s.Outputs == nil {
				s.Outputs = make(map[int]map[int]Output)
			}
			if s.Outputs[r.Stage] == nil {
				s.Outputs[r.Stage] = make(map[int]Output)
			}
			s.Outputs[r.Stage][r.Index] = Output{Node: r.Node, Bytes: r.Bytes}
		}
	case KindAttemptEnded:
		s.removeAttempt(r.Task, r.Node)
		switch r.Outcome {
		case "success", "killed", "preempted":
			// Loser copies, late successes, and announced spot reclamations:
			// no failure accounting, mirroring noteTaskFailure's Killed and
			// preemption exemptions.
		case "fetch-failed":
			s.bumpFail(r.Task)
			s.Counters.FetchFailures++
		default: // oom, lost, flaked
			s.bumpFail(r.Task)
			if s.TaskNodeFailures == nil {
				s.TaskNodeFailures = make(map[int]map[string]int)
			}
			if s.TaskNodeFailures[r.Task] == nil {
				s.TaskNodeFailures[r.Task] = make(map[string]int)
			}
			s.TaskNodeFailures[r.Task][r.Node]++
			if s.NodeFailures == nil {
				s.NodeFailures = make(map[string]int)
			}
			s.NodeFailures[r.Node]++
		}
	case KindTaskRolledBack:
		delete(s.Finished, r.Task)
		if s.Resubmits == nil {
			s.Resubmits = make(map[int]int)
		}
		s.Resubmits[r.Task]++
		s.Counters.Resubmissions++
	case KindOutputMoved:
		// Drain re-replication: the partition's output registration moves
		// to its new home, so a post-crash rebuild does not resurrect the
		// location on the preempted node.
		if r.Bytes > 0 {
			if s.Outputs == nil {
				s.Outputs = make(map[int]map[int]Output)
			}
			if s.Outputs[r.Stage] == nil {
				s.Outputs[r.Stage] = make(map[int]Output)
			}
			s.Outputs[r.Stage][r.Index] = Output{Node: r.Node, Bytes: r.Bytes}
		}
	case KindOutputLost:
		if m := s.Outputs[r.Stage]; m != nil {
			delete(m, r.Index)
			if len(m) == 0 {
				delete(s.Outputs, r.Stage)
			}
		}
	case KindExecLost:
		if s.LostExecs == nil {
			s.LostExecs = make(map[string]bool)
		}
		s.LostExecs[r.Node] = true
		s.Counters.ExecutorsLost++
	case KindExecRejoined:
		delete(s.LostExecs, r.Node)
		if len(s.LostExecs) == 0 {
			s.LostExecs = nil
		}
		s.Counters.ExecutorsRejoined++
	case KindExecIncarnation:
		if s.LastInc == nil {
			s.LastInc = make(map[string]int)
		}
		s.LastInc[r.Node] = r.Inc
	case KindBlacklistAdd:
		if s.Blacklist == nil {
			s.Blacklist = make(map[string]float64)
		}
		s.Blacklist[r.Node] = r.Until
		// Activation resets the node's failure tally (blacklist.noteFailure).
		delete(s.NodeFailures, r.Node)
		if len(s.NodeFailures) == 0 {
			s.NodeFailures = nil
		}
		s.Counters.NodesBlacklisted++
	case KindCharDBPut:
		if s.CharDB == nil {
			s.CharDB = make(map[string]json.RawMessage)
		}
		s.CharDB[r.Key] = append(json.RawMessage(nil), r.CharDB...)
	case KindClaimProposed:
		if s.Claims == nil {
			s.Claims = make(map[string]Claim)
		}
		s.Claims[r.Key] = Claim{State: "proposed", Task: r.Task, Node: r.Node, Slots: r.Slots}
		// Track the high-water claim sequence so a recovered driver never
		// reuses a claim ID: agents tombstone dead IDs, so reuse would make
		// fresh proposals look like duplicates.
		if i := strings.LastIndexByte(r.Key, ':'); i >= 0 {
			if seq, err := strconv.ParseUint(r.Key[i+1:], 10, 64); err == nil && seq > s.ClaimSeq {
				s.ClaimSeq = seq
			}
		}
	case KindClaimCommitted:
		if c, ok := s.Claims[r.Key]; ok {
			c.State = "committed"
			s.Claims[r.Key] = c
		}
	case KindClaimBound:
		if c, ok := s.Claims[r.Key]; ok {
			c.State = "bound"
			s.Claims[r.Key] = c
		}
	case KindClaimAborted, KindClaimReleased:
		delete(s.Claims, r.Key)
		if len(s.Claims) == 0 {
			s.Claims = nil
		}
	case KindRecovered:
		// Recovery barrier: every pre-crash in-flight attempt is either
		// re-adopted (task-adopted records follow) or back in the pool.
		// Claims deliberately survive the barrier — the recovered driver
		// must still abort or release each one with the owning agent.
		s.Running = nil
	}
}

func (s *State) addAttempt(r *Record) {
	if s.Running == nil {
		s.Running = make(map[int][]Attempt)
	}
	s.Running[r.Task] = append(s.Running[r.Task], Attempt{Node: r.Node, Spec: r.Spec})
}

func (s *State) removeAttempt(tid int, node string) {
	atts := s.Running[tid]
	for i, a := range atts {
		if a.Node == node {
			atts = append(atts[:i], atts[i+1:]...)
			break
		}
	}
	if len(atts) == 0 {
		delete(s.Running, tid)
		if len(s.Running) == 0 {
			s.Running = nil
		}
	} else {
		s.Running[tid] = atts
	}
}

func (s *State) bumpFail(tid int) {
	if s.FailCount == nil {
		s.FailCount = make(map[int]int)
	}
	s.FailCount[tid]++
}

// Encode renders the state canonically: encoding/json sorts map keys, so
// equal states produce byte-identical output — the determinism invariant
// the chaos recovery battery checks by replaying the same log twice.
func (s *State) Encode() []byte {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		panic("wal: encode state: " + err.Error())
	}
	return append(b, '\n')
}
