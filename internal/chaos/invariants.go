package chaos

import (
	"fmt"
	"sort"

	"rupam/internal/cluster"
	"rupam/internal/executor"
	"rupam/internal/spark"
	"rupam/internal/task"
)

// This file is the invariant battery: a library of post-run checks over a
// finished runtime, usable both by the soak harness and directly by tests
// (package experiments reuses CheckResourceConservation instead of
// hand-rolling the same assertions).

// CheckInvariants runs every post-run invariant against a finished run
// and returns the violations (empty means the run is clean). It asserts:
//
//   - the app completed every job, or aborted with a structured error;
//   - no task completion was lost (completed runs: exactly one successful
//     attempt per task) or double-counted (any run: at most one);
//   - attempt accounting matches the driver's launch count;
//   - no attempt is still registered in-flight;
//   - completed runs drained the straggler set and the scheduler queues;
//   - resource conservation (CheckResourceConservation).
func CheckInvariants(res *spark.Result, rt *spark.Runtime) []string {
	return append(CheckAppInvariants(res, rt), CheckResourceConservation(rt)...)
}

// CheckAppInvariants is the application-scoped battery: everything in
// CheckInvariants except resource conservation. In a multi-tenant run the
// executors, heaps and cache registry are shared across applications, so
// per-node conservation only holds for the whole substrate (the tenant
// manager's end-state check) — but each application's completion, attempt
// and queue-drain accounting must still hold on its own.
func CheckAppInvariants(res *spark.Result, rt *spark.Runtime) []string {
	var v []string
	completed := res.Aborted == nil

	if completed && len(res.JobEnds) != len(res.App.Jobs) {
		v = append(v, fmt.Sprintf("completed run finished %d of %d jobs",
			len(res.JobEnds), len(res.App.Jobs)))
	}

	attempts := 0
	for _, tk := range res.App.AllTasks() {
		attempts += len(tk.Attempts)
		succ := 0
		for _, a := range tk.Attempts {
			if a.Succeeded() {
				succ++
			}
		}
		// A map-output rollback legitimately re-runs an already-succeeded
		// task, so each resubmission licenses one extra success; a
		// speculative race whose copies all completed while the driver was
		// down likewise yields one redundant successful attempt per drained
		// duplicate. Anything beyond that is a completion counted twice.
		if max := 1 + rt.ResubmitCount(tk.ID) + rt.DuplicateSuccessCount(tk.ID); succ > max {
			v = append(v, fmt.Sprintf(
				"%s: %d successful attempts with %d resubmissions and %d crash-window duplicates (completion double-counted)",
				tk, succ, rt.ResubmitCount(tk.ID), rt.DuplicateSuccessCount(tk.ID)))
		}
		if completed {
			if tk.State != task.Finished {
				v = append(v, fmt.Sprintf("%s: not finished after a completed run", tk))
			} else if succ == 0 {
				v = append(v, fmt.Sprintf("%s: finished with no successful attempt", tk))
			}
		}
	}
	if attempts != res.Launches {
		v = append(v, fmt.Sprintf("attempt records %d != launches %d", attempts, res.Launches))
	}

	if n := rt.LiveAttempts(); n != 0 {
		v = append(v, fmt.Sprintf("%d attempts still registered in-flight", n))
	}
	if completed {
		if n := rt.SpeculatableCount(); n != 0 {
			v = append(v, fmt.Sprintf("straggler set not drained: %d entries", n))
		}
		if n := rt.Scheduler().PendingTasks(); n != 0 {
			v = append(v, fmt.Sprintf("scheduler queues not drained: %d pending tasks", n))
		}
	}

	return v
}

// CheckResourceConservation verifies that after a run no simulated
// resource is still held: nothing is running, GPU tokens are returned,
// each executor's heap holds exactly its cached bytes, and no launch-time
// memory reservation dangles. It returns the violations found.
func CheckResourceConservation(rt *spark.Runtime) []string {
	return CheckSubstrateConservation(rt.Execs, rt.Clu, rt.Cache)
}

// CheckSubstrateConservation is CheckResourceConservation over a bare
// substrate — the executor registry, cluster, and cache tracker — for
// harnesses with no spark.Runtime (the streaming soak) or with several
// sharing one substrate (the tenancy soak's end-state check).
func CheckSubstrateConservation(execs map[string]*executor.Executor, clu *cluster.Cluster, cache *executor.CacheTracker) []string {
	var v []string
	names := make([]string, 0, len(execs))
	for name := range execs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ex := execs[name]
		if n := ex.RunningTasks(); n != 0 {
			v = append(v, fmt.Sprintf("%s: %d tasks still running", name, n))
		}
		if node := clu.Node(name); node != nil && node.GPU.InUse() != 0 {
			v = append(v, fmt.Sprintf("%s: %d GPU tokens leaked", name, node.GPU.InUse()))
		}
		if cached := cache.NodeBytes(name); ex.Heap().Used() != cached {
			v = append(v, fmt.Sprintf("%s: heap holds %d bytes but cache accounts for %d",
				name, ex.Heap().Used(), cached))
		}
		if ex.ProjectedFree() != ex.HeapFree() {
			v = append(v, fmt.Sprintf("%s: dangling memory reservation (%d bytes)",
				name, ex.HeapFree()-ex.ProjectedFree()))
		}
	}
	return v
}
