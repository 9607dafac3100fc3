package tracing

import (
	"errors"
	"fmt"
	"io"
)

// Candidate is one task a scheduler examined while filling an offer.
// Rejection is empty for the winner and names the gate that eliminated
// every loser ("no-mem-fit", "lock-incompatible", "waiting-for-locality",
// ...); Detail carries the scheduler's per-candidate evidence, e.g. the
// CharDB record behind a RUPAM verdict.
type Candidate struct {
	TaskID    int
	Locality  string
	Rejection string
	Detail    string
}

// Decision is the audit record of one placement round: the node offer
// being filled, every candidate considered, and the winner (if any) with
// the heuristic that selected it. Schedulers build a Decision per offer
// and Commit it only when a launch actually happened, so committed
// decisions correspond one-to-one with launches.
//
// A nil *Decision (tracing disabled) ignores all calls, letting the
// scheduler hot path stay free of conditionals beyond one nil check when
// formatting per-candidate detail.
type Decision struct {
	c *Collector

	seq       uint64
	Time      float64
	Scheduler string
	Node      string

	// App and Pool scope the decision to one application and its FAIR
	// pool in multi-tenant runs; both are empty for single-app runs.
	App  string
	Pool string

	// Queue names the resource dimension whose offer is being filled
	// (RUPAM) or is empty for slot-based scheduling (default Spark).
	Queue     string
	OfferCap  float64
	OfferUtil float64

	Winner         int // task ID; -1 while unset
	Heuristic      string
	WinnerLocality string
	Speculative    bool

	Candidates []Candidate
	Notes      []string
}

// NewDecision opens a placement-decision record for an offer on node.
func (c *Collector) NewDecision(scheduler, node string) *Decision {
	if c == nil {
		return nil
	}
	return &Decision{c: c, Time: c.now(), Scheduler: scheduler, Node: node, Winner: -1}
}

// SetScope attributes the decision to an application and its FAIR pool
// (multi-tenant runs; the spark runtime applies it from its config labels).
func (d *Decision) SetScope(app, pool string) {
	if d == nil {
		return
	}
	d.App, d.Pool = app, pool
}

// SetQueue records the resource queue (and the offer's capability/
// utilization scores) that produced the node offer.
func (d *Decision) SetQueue(queue string, cap, util float64) {
	if d == nil {
		return
	}
	d.Queue, d.OfferCap, d.OfferUtil = queue, cap, util
}

// Candidate records one examined task. An empty rejection means the task
// passed every gate (it may still lose on locality; SetWinner settles it).
func (d *Decision) Candidate(taskID int, locality, rejection, detail string) {
	if d == nil {
		return
	}
	d.Candidates = append(d.Candidates, Candidate{
		TaskID: taskID, Locality: locality, Rejection: rejection, Detail: detail,
	})
}

// Note attaches a free-form remark (e.g. a stage skipped for backoff).
func (d *Decision) Note(format string, args ...interface{}) {
	if d == nil {
		return
	}
	d.Notes = append(d.Notes, fmt.Sprintf(format, args...))
}

// SetWinner marks the chosen task and the heuristic that chose it. Every
// other gate-passing candidate is relabeled as having lost to the winner.
func (d *Decision) SetWinner(taskID int, heuristic, locality string, speculative bool) {
	if d == nil {
		return
	}
	d.Winner, d.Heuristic, d.WinnerLocality, d.Speculative = taskID, heuristic, locality, speculative
	found := false
	for i := range d.Candidates {
		c := &d.Candidates[i]
		if c.TaskID == taskID && c.Rejection == "" {
			found = true
		} else if c.Rejection == "" {
			c.Rejection = "lost-to-winner"
		}
	}
	if !found {
		d.Candidates = append(d.Candidates, Candidate{TaskID: taskID, Locality: locality})
	}
}

// Commit files the decision with the collector; uncommitted decisions
// (offers that produced no launch) are simply dropped, bounding the audit
// to one record per launch.
func (d *Decision) Commit() {
	if d == nil {
		return
	}
	d.seq = d.c.nextSeq()
	d.c.decisions = append(d.c.decisions, d)
}

// ---- Explain ---------------------------------------------------------------

// explainRejectionCap bounds how many rejection rounds Explain prints per
// task; a long run can reject the same task in hundreds of rounds.
const explainRejectionCap = 12

var errExplainDisabled = errors.New("tracing: collector disabled; run with tracing enabled to explain placements")

// Explain writes a plain-text audit for the task: its recorded attempts,
// the committed decisions that placed it, and (capped) the decisions that
// considered and rejected it.
func (c *Collector) Explain(w io.Writer, taskID int) error {
	if c == nil {
		return errExplainDisabled
	}
	attempts := c.attemptsByTask[taskID]
	var placed, rejected []*Decision
	for _, d := range c.decisions {
		if d.Winner == taskID {
			placed = append(placed, d)
			continue
		}
		for _, cand := range d.Candidates {
			if cand.TaskID == taskID {
				rejected = append(rejected, d)
				break
			}
		}
	}
	if len(attempts) == 0 && len(placed) == 0 && len(rejected) == 0 {
		return fmt.Errorf("tracing: no records for task %d (unknown task, or it never reached a scheduler)", taskID)
	}

	fmt.Fprintf(w, "== decision audit for task %d ==\n", taskID)
	fmt.Fprintf(w, "attempts: %d\n", len(attempts))
	for i, a := range attempts {
		wait := ""
		if a.QueuedAt >= 0 {
			wait = fmt.Sprintf(" (queued %.2fs earlier)", a.Launch-a.QueuedAt)
		}
		spec := ""
		if a.Speculative {
			spec = " speculative"
		}
		fmt.Fprintf(w, "  a%d%s on %-8s %-13s launched %8.2fs%s", i, spec, a.Node, a.Locality, a.Launch, wait)
		if a.End > 0 {
			fmt.Fprintf(w, "  ended %8.2fs  outcome %s\n", a.End, a.Outcome)
		} else {
			fmt.Fprintf(w, "  (still running at trace end)\n")
		}
		for j, p := range a.phases {
			end := a.End
			if j+1 < len(a.phases) {
				end = a.phases[j+1].start
			}
			if end <= 0 {
				end = p.start
			}
			fmt.Fprintf(w, "      %-13s %8.2fs → %8.2fs (%.3fs)\n", p.name, p.start, end, end-p.start)
		}
	}

	fmt.Fprintf(w, "placements: %d\n", len(placed))
	for _, d := range placed {
		writeDecision(w, d)
	}
	if len(rejected) > 0 {
		n := len(rejected)
		fmt.Fprintf(w, "rejections: considered in %d other rounds\n", n)
		if n > explainRejectionCap {
			rejected = rejected[:explainRejectionCap]
		}
		for _, d := range rejected {
			reason, detail := "", ""
			for _, cand := range d.Candidates {
				if cand.TaskID == taskID {
					reason, detail = cand.Rejection, cand.Detail
					break
				}
			}
			fmt.Fprintf(w, "  [%8.2fs] %s offered %s%s: %s", d.Time, d.Scheduler, d.Node, queueSuffix(d), reason)
			if detail != "" {
				fmt.Fprintf(w, " (%s)", detail)
			}
			fmt.Fprintln(w)
		}
		if n > explainRejectionCap {
			fmt.Fprintf(w, "  ... and %d more rounds\n", n-explainRejectionCap)
		}
	}
	return nil
}

func queueSuffix(d *Decision) string {
	if d.Queue == "" {
		return ""
	}
	return fmt.Sprintf(" [%s queue, cap %.2f util %.2f]", d.Queue, d.OfferCap, d.OfferUtil)
}

// writeDecision prints one full decision record.
func writeDecision(w io.Writer, d *Decision) {
	spec := ""
	if d.Speculative {
		spec = " (speculative copy)"
	}
	fmt.Fprintf(w, "  [%8.2fs] %s placed task %d on %s%s%s\n",
		d.Time, d.Scheduler, d.Winner, d.Node, queueSuffix(d), spec)
	fmt.Fprintf(w, "      winner: locality %s — heuristic: %s\n", d.WinnerLocality, d.Heuristic)
	if d.App != "" {
		fmt.Fprintf(w, "      app: %s (pool %q)\n", d.App, d.Pool)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(w, "      note: %s\n", n)
	}
	if len(d.Candidates) > 1 {
		fmt.Fprintf(w, "      candidates considered: %d\n", len(d.Candidates))
	}
	for _, cand := range d.Candidates {
		if cand.TaskID == d.Winner && cand.Rejection == "" {
			continue
		}
		fmt.Fprintf(w, "        task %d [%s]: %s", cand.TaskID, cand.Locality, cand.Rejection)
		if cand.Detail != "" {
			fmt.Fprintf(w, " (%s)", cand.Detail)
		}
		fmt.Fprintln(w)
	}
}

// Decisions returns the committed decisions in commit order (tests).
func (c *Collector) Decisions() []*Decision {
	if c == nil {
		return nil
	}
	return c.decisions
}

// TracedTasks returns how many distinct tasks have attempt records.
func (c *Collector) TracedTasks() int {
	if c == nil {
		return 0
	}
	return len(c.attemptsByTask)
}
