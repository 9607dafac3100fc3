package experiments_test

import (
	"testing"

	"rupam/internal/chaos"
	"rupam/internal/experiments"
	"rupam/internal/task"
)

// TestRunInvariants drives representative workload × scheduler pairs and
// asserts the cross-cutting conservation properties the simulation must
// uphold regardless of policy.
func TestRunInvariants(t *testing.T) {
	cases := []experiments.RunSpec{
		{Workload: "LR", Scheduler: experiments.SchedRUPAM, Seed: 4},
		{Workload: "PR", Scheduler: experiments.SchedSpark, Seed: 4},
		{Workload: "KMeans", Scheduler: experiments.SchedRUPAM, Seed: 4},
		{Workload: "TC", Scheduler: experiments.SchedSpark, Seed: 4},
	}
	for _, spec := range cases {
		spec := spec
		t.Run(spec.Workload+"-"+spec.Scheduler, func(t *testing.T) {
			res := experiments.Run(spec)

			// Every task finished with exactly one successful attempt.
			for _, tk := range res.App.AllTasks() {
				if tk.State != task.Finished {
					t.Fatalf("%s not finished", tk)
				}
				succ := 0
				for _, a := range tk.Attempts {
					if !a.OOM && !a.Killed && a.End > 0 {
						succ++
					}
					// Every attempt's timeline is ordered.
					if a.End > 0 && (a.Start > a.End || a.Launch > a.Start+1e-9) {
						if !a.OOM && !a.Killed {
							t.Fatalf("%s: inconsistent attempt timeline %+v", tk, a)
						}
					}
					// Attempt times never exceed the app duration window.
					if a.End > res.Duration+1e-6 {
						t.Fatalf("%s: attempt ends after the app: %v > %v", tk, a.End, res.Duration)
					}
					// Phase times are non-negative.
					if a.ComputeTime < 0 || a.GCTime < 0 || a.ShuffleReadTime < 0 ||
						a.ShuffleWriteTime < 0 || a.SchedulerDelay < -1e-9 {
						t.Fatalf("%s: negative phase time %+v", tk, a)
					}
				}
				if succ != 1 {
					t.Fatalf("%s has %d successful attempts", tk, succ)
				}
			}

			// Job completion times are monotone and end at the app end.
			prev := 0.0
			for _, je := range res.JobEnds {
				if je < prev {
					t.Fatalf("job ends not monotone: %v", res.JobEnds)
				}
				prev = je
			}
			if len(res.JobEnds) != len(res.App.Jobs) {
				t.Fatalf("job ends = %d, jobs = %d", len(res.JobEnds), len(res.App.Jobs))
			}

			// Launch accounting: at least one attempt per task, and exactly
			// as many attempts as launches.
			attempts := 0
			for _, tk := range res.App.AllTasks() {
				attempts += len(tk.Attempts)
			}
			if attempts != res.Launches {
				t.Fatalf("attempts %d != launches %d", attempts, res.Launches)
			}
		})
	}
}

// TestResourceConservation verifies that after a run, no simulated
// resource is still held: heaps contain only cached bytes, GPUs are idle,
// and nothing is running. The checks themselves live in package chaos so
// the soak harness and this test can't drift apart.
func TestResourceConservation(t *testing.T) {
	// Build the run directly so the runtime's internals are inspectable
	// after completion.
	rt, app := experiments.NewRun(experiments.RunSpec{Workload: "KMeans", Scheduler: experiments.SchedRUPAM, Seed: 6})
	res := rt.Run(app)
	for _, v := range chaos.CheckInvariants(res, rt) {
		t.Error(v)
	}
}
