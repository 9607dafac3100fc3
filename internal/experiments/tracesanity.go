package experiments

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"rupam/internal/task"
	"rupam/internal/tracing"
	"rupam/internal/workloads"
)

// TraceSanity exercises the tracing subsystem end to end: a small TeraSort
// under each scheduler with the collector attached, checking that the
// Chrome export is well-formed and byte-deterministic, that every launch
// produced exactly one committed placement decision, and that the
// critical-path analysis satisfies its invariants (path length equals the
// makespan, is at least the longest single attempt, and the category
// breakdown sums to the path length).
type TraceSanity struct {
	Rows       []TraceSanityRow
	Violations []string
}

// TraceSanityRow is one scheduler's traced run.
type TraceSanityRow struct {
	Scheduler  string
	Duration   float64
	Launches   int
	Events     int
	Decisions  int
	TraceBytes int
	PathLen    float64
}

const cpEps = 1e-6

// RunTraceSanity runs the sweep. Violations stay in the report rather than
// panicking so rupam-bench can print every failure before exiting non-zero.
func RunTraceSanity(seed uint64) *TraceSanity {
	rep := &TraceSanity{}
	for _, sched := range []string{SchedSpark, SchedRUPAM} {
		spec := RunSpec{
			Workload:  "TeraSort",
			Params:    workloads.Params{InputGB: 2, Partitions: 32, Iterations: 1},
			Scheduler: sched,
			Seed:      seed,
		}
		row, violations := traceOnce(spec)
		rep.Rows = append(rep.Rows, row)
		rep.Violations = append(rep.Violations, violations...)
	}
	return rep
}

func traceOnce(spec RunSpec) (TraceSanityRow, []string) {
	var violations []string
	bad := func(format string, args ...interface{}) {
		violations = append(violations, fmt.Sprintf("%s: ", spec.Scheduler)+fmt.Sprintf(format, args...))
	}

	run := func() (*tracing.Collector, []byte, float64, int) {
		s := spec
		col := tracing.NewCollector()
		s.Spark.Tracer = col
		res := Run(s)
		var buf bytes.Buffer
		if err := col.WriteChromeTrace(&buf); err != nil {
			bad("trace export failed: %v", err)
		}
		// The critical path is computed per run because Analyze reads the
		// run's own application object.
		cp, err := tracing.Analyze(res.App)
		if err != nil {
			bad("critical-path analysis failed: %v", err)
		} else {
			checkCritPath(cp, res.Duration, res.App, bad)
		}
		if got, want := col.DecisionCount(), res.Launches; got != want {
			bad("decision audit: %d committed decisions for %d launches", got, want)
		}
		return col, buf.Bytes(), res.Duration, res.Launches
	}

	tr, data, duration, launches := run()
	if err := tracing.ValidateChromeTrace(data); err != nil {
		bad("trace_event validation: %v", err)
	}
	_, data2, _, _ := run()
	if !bytes.Equal(data, data2) {
		bad("trace export not deterministic: %d vs %d bytes for identical runs", len(data), len(data2))
	}

	return TraceSanityRow{
		Scheduler:  spec.Scheduler,
		Duration:   duration,
		Launches:   launches,
		Events:     tr.EventCount(),
		Decisions:  tr.DecisionCount(),
		TraceBytes: len(data),
		PathLen:    duration, // Analyze guarantees Length == makespan
	}, violations
}

// maxAttemptSeconds returns the longest single attempt in the run — a
// trivial lower bound on any full dependency path.
func maxAttemptSeconds(app *task.Application) float64 {
	longest := 0.0
	for _, t := range app.AllTasks() {
		for _, m := range t.Attempts {
			if d := m.Duration(); d > longest {
				longest = d
			}
		}
	}
	return longest
}

// checkCritPath asserts the analyzer's invariants against one run.
func checkCritPath(cp *tracing.CriticalPath, makespan float64, app *task.Application, bad func(string, ...interface{})) {
	if cp.Length > cp.Makespan+cpEps {
		bad("critical path %.6fs exceeds makespan %.6fs", cp.Length, cp.Makespan)
	}
	if cp.Makespan > makespan+cpEps {
		bad("analyzer makespan %.6fs exceeds run duration %.6fs", cp.Makespan, makespan)
	}
	if longest := maxAttemptSeconds(app); cp.Length+cpEps < longest {
		bad("critical path %.6fs shorter than longest attempt %.6fs", cp.Length, longest)
	}
	sum := 0.0
	for _, v := range cp.Categories {
		sum += v
	}
	if math.Abs(sum-cp.Length) > 1e-3 {
		bad("category breakdown sums to %.6fs, path length is %.6fs", sum, cp.Length)
	}
	if len(cp.Segments) == 0 {
		bad("critical path has no segments")
	}
	for _, seg := range cp.Segments {
		if seg.Wait < -cpEps || seg.Run < -cpEps {
			bad("segment task %d has negative time (wait %.6f, run %.6f)", seg.TaskID, seg.Wait, seg.Run)
		}
		if seg.Slack < -cpEps {
			bad("segment task %d has negative slack %.6f", seg.TaskID, seg.Slack)
		}
	}
}

// Print writes the report table.
func (r *TraceSanity) Print(w io.Writer) {
	fmt.Fprintf(w, "%-10s %10s %9s %8s %10s %12s %12s\n",
		"scheduler", "duration", "launches", "events", "decisions", "trace bytes", "crit path")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %9.1fs %9d %8d %10d %12d %11.1fs\n",
			row.Scheduler, row.Duration, row.Launches, row.Events,
			row.Decisions, row.TraceBytes, row.PathLen)
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "all tracing invariants hold\n")
		return
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "VIOLATION: %s\n", v)
	}
}
