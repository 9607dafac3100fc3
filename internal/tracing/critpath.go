package tracing

import (
	"fmt"
	"io"

	"rupam/internal/metrics"
	"rupam/internal/task"
)

// Critical-path analysis over a finished application. The dependency model
// mirrors the driver exactly: a task becomes ready when every task of its
// stage's parent stages has a successful attempt (stages submit only then),
// and jobs are a barrier — job j+1's stages submit only after job j's final
// stage completes. Within those rules each task contributes a
// "wait" edge (ready → launch: queueing plus scheduler placement) and a
// "run" edge (launch → end of its successful attempt). Because launches are
// gated on exactly these dependencies, ready-time + wait + run reproduces
// the attempt's actual end time, so the longest chain telescopes: its
// length is precisely last-end − first-launch and the per-category
// breakdown sums to it.

// PathSegment is one task's contribution to the critical path.
type PathSegment struct {
	TaskID  int
	StageID int
	JobID   int
	Node    string

	Wait    float64 // ready → launch (queueing + placement)
	Run     float64 // launch → successful end
	Seconds float64 // Wait + Run

	// Slack is how much the app's longest path shrinks if this segment
	// were free (both edges zero) — the paper's "what bounded the
	// makespan" question, per edge.
	Slack float64
}

// CategoryOrder fixes the print and test order of breakdown categories.
var CategoryOrder = []string{"sched", "shuffle-disk", "shuffle-net", "gc", "compute"}

// CriticalPath is the analyzer's result.
type CriticalPath struct {
	Makespan   float64 // last successful end − first launch
	Length     float64 // longest dependency chain (== Makespan by construction)
	Categories map[string]float64
	Segments   []PathSegment // in execution order, source → sink
}

// node is the per-task DP state.
type cpNode struct {
	t       *task.Task
	jobID   int
	parents []*task.Task // tasks of the stage's parent stages
	launch  float64
	end     float64
}

// Analyze walks a finished application's dependencies and returns the
// longest path. Every task must have a successful attempt; aborted or
// still-running applications are rejected.
func Analyze(app *task.Application) (*CriticalPath, error) {
	if app == nil || len(app.Jobs) == 0 {
		return nil, fmt.Errorf("critpath: empty application")
	}

	nodes := make(map[int]*cpNode)
	var order []*cpNode // definition order: parents of a stage precede it
	jobBarrier := make([]float64, len(app.Jobs)+1)
	appStart := -1.0

	for ji, j := range app.Jobs {
		for _, st := range j.Stages {
			var parents []*task.Task
			for _, p := range st.Parent {
				parents = append(parents, p.Tasks...)
			}
			for _, t := range st.Tasks {
				m := t.SuccessMetrics()
				if m == nil {
					return nil, fmt.Errorf("critpath: %s has no successful attempt (application did not finish)", t)
				}
				n := &cpNode{t: t, jobID: j.ID, parents: parents, launch: m.Launch, end: m.End}
				nodes[t.ID] = n
				order = append(order, n)
				if appStart < 0 || m.Launch < appStart {
					appStart = m.Launch
				}
				if m.End > jobBarrier[ji+1] {
					jobBarrier[ji+1] = m.End
				}
			}
		}
	}
	jobBarrier[0] = appStart
	jobIdx := make(map[int]int, len(app.Jobs))
	for i, j := range app.Jobs {
		jobIdx[j.ID] = i
	}

	// Sink: latest successful end, ties to the lowest task ID.
	var sink *cpNode
	for _, n := range order {
		if sink == nil || n.end > sink.end || (n.end == sink.end && n.t.ID < sink.t.ID) {
			sink = n
		}
	}

	// Walk back from the sink choosing, at each step, the dependency that
	// actually bounded readiness: the latest-ending parent task, or the
	// previous job's barrier / app start when the stage had no parents (or
	// all parents ended before the barrier).
	var chain []*cpNode
	for n := sink; n != nil; {
		chain = append(chain, n)
		ready := jobBarrier[jobIdx[n.jobID]]
		var pred *cpNode
		for _, p := range n.parents {
			pn := nodes[p.ID]
			if pn.end > ready || (pred != nil && pn.end == ready && pn.t.ID < pred.t.ID) {
				ready = pn.end
				pred = pn
			}
		}
		if pred == nil && jobIdx[n.jobID] > 0 {
			// The barrier bound us: continue through the previous job's
			// latest-ending task.
			barrier := jobBarrier[jobIdx[n.jobID]]
			for _, c := range order {
				if jobIdx[c.jobID] == jobIdx[n.jobID]-1 && c.end == barrier {
					if pred == nil || c.t.ID < pred.t.ID {
						pred = c
					}
				}
			}
		}
		n = pred
	}
	// Reverse into execution order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	cp := &CriticalPath{
		Makespan:   sink.end - appStart,
		Categories: make(map[string]float64, len(CategoryOrder)),
	}
	prevEnd := appStart
	for _, n := range chain {
		m := n.t.SuccessMetrics()
		seg := PathSegment{
			TaskID:  n.t.ID,
			StageID: n.t.StageID,
			JobID:   n.jobID,
			Node:    m.Executor,
			Wait:    n.launch - prevEnd,
			Run:     n.end - n.launch,
		}
		seg.Seconds = seg.Wait + seg.Run
		var b metrics.Breakdown
		b.Add(m)
		cp.Categories["sched"] += seg.Wait + b.Scheduler
		cp.Categories["shuffle-disk"] += b.ShuffleDisk
		cp.Categories["shuffle-net"] += b.ShuffleNet
		cp.Categories["gc"] += b.GC
		// Residual (dispatch latency, admission stalls — run time the
		// metrics don't itemize) lands in compute so categories sum
		// exactly to the path length.
		cp.Categories["compute"] += b.Compute + (seg.Run - b.Total())
		cp.Segments = append(cp.Segments, seg)
		cp.Length += seg.Seconds
		prevEnd = n.end
	}

	// What-if slack per segment: re-run the longest-path DP with that
	// task's wait and run zeroed.
	for i := range cp.Segments {
		cp.Segments[i].Slack = cp.Length - longestWithout(order, nodes, jobBarrier, jobIdx, appStart, cp.Segments[i].TaskID)
	}
	return cp, nil
}

// longestWithout computes the app's longest dependency chain with the
// given task's wait and run edges zeroed, relative to appStart.
func longestWithout(order []*cpNode, nodes map[int]*cpNode, jobBarrier []float64, jobIdx map[int]int, appStart float64, freeTask int) float64 {
	// eft[id] = earliest finish in the what-if schedule. Tasks are visited
	// in definition order (parents first, jobs in sequence), so a single
	// pass suffices; job barriers are recomputed as the pass crosses jobs.
	eft := make(map[int]float64, len(order))
	barrier := make([]float64, len(jobBarrier))
	barrier[0] = appStart
	longest := 0.0
	for _, n := range order {
		ji := jobIdx[n.jobID]
		ready := barrier[ji]
		for _, p := range n.parents {
			if f := eft[p.ID]; f > ready {
				ready = f
			}
		}
		f := ready
		if n.t.ID != freeTask {
			orig := jobBarrier[jobIdx[n.jobID]]
			origReady := orig
			for _, p := range n.parents {
				if e := nodes[p.ID].end; e > origReady {
					origReady = e
				}
			}
			f = ready + (n.launch - origReady) + (n.end - n.launch)
		}
		eft[n.t.ID] = f
		if f > barrier[ji+1] {
			barrier[ji+1] = f
		}
		if f-appStart > longest {
			longest = f - appStart
		}
	}
	return longest
}

// Print writes a human-readable report.
func (cp *CriticalPath) Print(w io.Writer) {
	fmt.Fprintf(w, "critical path: %.2fs over %d tasks (makespan %.2fs)\n", cp.Length, len(cp.Segments), cp.Makespan)
	fmt.Fprintf(w, "  breakdown:")
	for _, cat := range CategoryOrder {
		fmt.Fprintf(w, "  %s %.2fs", cat, cp.Categories[cat])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  %-8s %-6s %-4s %-10s %10s %10s %10s %10s\n",
		"task", "stage", "job", "node", "wait(s)", "run(s)", "total(s)", "slack(s)")
	for _, s := range cp.Segments {
		fmt.Fprintf(w, "  %-8d %-6d %-4d %-10s %10.2f %10.2f %10.2f %10.2f\n",
			s.TaskID, s.StageID, s.JobID, s.Node, s.Wait, s.Run, s.Seconds, s.Slack)
	}
}
