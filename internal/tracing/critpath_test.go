package tracing_test

// End-to-end invariants over full simulated runs: the critical path must
// never exceed the makespan, must be at least as long as the longest
// single attempt, and its category breakdown must sum to its length — for
// multiple seeds under both schedulers. The golden test pins byte-level
// determinism of the Chrome export across identical runs.

import (
	"bytes"
	"math"
	"testing"

	"rupam/internal/experiments"
	"rupam/internal/task"
	"rupam/internal/tracing"
	"rupam/internal/workloads"
)

const eps = 1e-6

func smallSpec(scheduler string, seed uint64) experiments.RunSpec {
	return experiments.RunSpec{
		Workload:  "TeraSort",
		Params:    workloads.Params{InputGB: 0.25, Partitions: 8, Iterations: 1},
		Scheduler: scheduler,
		Seed:      seed,
	}
}

func longestAttempt(app *task.Application) float64 {
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

func TestCriticalPathInvariants(t *testing.T) {
	for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := smallSpec(sched, seed)
			spec.Spark.Tracer = tracing.NewCollector()
			res := experiments.Run(spec)

			cp, err := tracing.Analyze(res.App)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sched, seed, err)
			}
			if cp.Length > res.Duration+eps {
				t.Errorf("%s seed %d: path %.6fs exceeds makespan %.6fs", sched, seed, cp.Length, res.Duration)
			}
			if la := longestAttempt(res.App); cp.Length+eps < la {
				t.Errorf("%s seed %d: path %.6fs shorter than longest attempt %.6fs", sched, seed, cp.Length, la)
			}
			sum := 0.0
			for _, v := range cp.Categories {
				sum += v
			}
			if math.Abs(sum-cp.Length) > 1e-3 {
				t.Errorf("%s seed %d: breakdown sums to %.6fs, path length %.6fs", sched, seed, sum, cp.Length)
			}
			if len(cp.Segments) == 0 {
				t.Errorf("%s seed %d: empty critical path", sched, seed)
			}
			for _, seg := range cp.Segments {
				if seg.Wait < -eps || seg.Run < -eps || seg.Slack < -eps {
					t.Errorf("%s seed %d: segment task %d negative (wait %.6f run %.6f slack %.6f)",
						sched, seed, seg.TaskID, seg.Wait, seg.Run, seg.Slack)
				}
			}

			// Every launch committed exactly one decision record.
			if got, want := spec.Spark.Tracer.DecisionCount(), res.Launches; got != want {
				t.Errorf("%s seed %d: %d decisions for %d launches", sched, seed, got, want)
			}
			var buf bytes.Buffer
			if err := spec.Spark.Tracer.WriteChromeTrace(&buf); err != nil {
				t.Fatalf("%s seed %d: export: %v", sched, seed, err)
			}
			if err := tracing.ValidateChromeTrace(buf.Bytes()); err != nil {
				t.Errorf("%s seed %d: invalid trace: %v", sched, seed, err)
			}
		}
	}
}

// TestAnalyzeRejectsIncompleteApp pins the error paths: an app with no
// tasks, and one whose tasks never ran.
func TestAnalyzeRejectsIncompleteApp(t *testing.T) {
	if _, err := tracing.Analyze(&task.Application{}); err == nil {
		t.Error("empty application accepted")
	}
	app := &task.Application{Jobs: []*task.Job{{Stages: []*task.Stage{
		{Tasks: []*task.Task{{ID: 1}}},
	}}}}
	if _, err := tracing.Analyze(app); err == nil {
		t.Error("application with unfinished tasks accepted")
	}
}

// TestTraceGolden runs the identical traced simulation twice and requires
// the exported bytes to be identical — the determinism contract the
// chaos-fingerprint harness relies on.
func TestTraceGolden(t *testing.T) {
	export := func(scheduler string) []byte {
		spec := smallSpec(scheduler, 1)
		spec.Spark.Tracer = tracing.NewCollector()
		experiments.Run(spec)
		var buf bytes.Buffer
		if err := spec.Spark.Tracer.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
		a, b := export(sched), export(sched)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: trace export not byte-identical across identical runs (%d vs %d bytes)",
				sched, len(a), len(b))
		}
	}
}

// TestTracedRunMatchesUntraced pins zero behavioral overhead: the same
// spec with and without a collector must produce identical results.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
		plain := experiments.Run(smallSpec(sched, 2))
		spec := smallSpec(sched, 2)
		spec.Spark.Tracer = tracing.NewCollector()
		traced := experiments.Run(spec)
		if plain.Duration != traced.Duration || plain.Launches != traced.Launches {
			t.Errorf("%s: tracing changed the run: %.9fs/%d launches vs %.9fs/%d launches",
				sched, plain.Duration, plain.Launches, traced.Duration, traced.Launches)
		}
	}
}
