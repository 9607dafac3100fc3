package spark

import (
	"testing"

	"rupam/internal/faults"
	"rupam/internal/task"
)

// TestHeartbeatRejoinRaceSingleCompletion partitions a node mid-stage
// while a CPU-throttled node makes stragglers: the watchdog declares the
// partitioned node lost and kills its attempts, speculative copies of
// stragglers race on the surviving nodes, and the node rejoins while
// copies are still in flight. However the races resolve, each task may
// be counted complete exactly once and every loser's slot must be
// released.
func TestHeartbeatRejoinRaceSingleCompletion(t *testing.T) {
	w := newWorld(t)
	app := simpleApp(w, 3)
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.HeartbeatLoss, Node: "slow", At: 1.5, Duration: 2.5},
		{Kind: faults.CPUDegrade, Node: "gpu", At: 0.5, Duration: 10, Factor: 0.1},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed:              3,
		HeartbeatInterval: 0.25, HeartbeatTimeout: 1,
		Faults: plan,
	})
	res := rt.Run(app)

	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.ExecutorsLost == 0 || res.ExecutorsRejoined == 0 {
		t.Fatalf("lost=%d rejoined=%d, want both > 0 (partition never raced the rejoin)",
			res.ExecutorsLost, res.ExecutorsRejoined)
	}
	if res.SpecCopies == 0 {
		t.Fatal("no speculative copies launched; the race under test never happened")
	}

	losers := 0
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s not finished", tk)
		}
		succ := 0
		for _, a := range tk.Attempts {
			if a.Succeeded() {
				succ++
			}
			if a.Killed {
				losers++
			}
		}
		if want := 1 + rt.ResubmitCount(tk.ID); succ > want {
			t.Fatalf("%s counted %d completions (resubmitted %d times)", tk, succ, want-1)
		}
		if succ == 0 {
			t.Fatalf("%s finished without a successful attempt", tk)
		}
	}
	if losers == 0 {
		t.Fatal("no attempt lost a race; the single-completion property was not exercised")
	}

	// Losers' slots released: nothing left running, no attempt registered,
	// no launch-time memory reservation dangling.
	if n := rt.LiveAttempts(); n != 0 {
		t.Fatalf("%d attempts still registered after the run", n)
	}
	for name, ex := range rt.Execs {
		if n := ex.RunningTasks(); n != 0 {
			t.Fatalf("%s still reports %d running tasks", name, n)
		}
		if ex.ProjectedFree() != ex.HeapFree() {
			t.Fatalf("%s: dangling memory reservation (%d bytes)",
				name, ex.HeapFree()-ex.ProjectedFree())
		}
	}
}
