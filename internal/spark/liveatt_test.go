package spark

import (
	"bytes"
	"testing"

	"rupam/internal/faults"
	"rupam/internal/wal"
)

// checkLiveIndex recounts the live-attempt registry: no task may keep an
// empty entry, and LiveAttempts must equal the recount.
func checkLiveIndex(t *testing.T, rt *Runtime, when string) {
	t.Helper()
	n := 0
	for id, rs := range rt.runningAtt {
		if len(rs) == 0 {
			t.Errorf("%s: task %d keeps an empty live entry", when, id)
		}
		n += len(rs)
	}
	if got := rt.LiveAttempts(); got != n {
		t.Errorf("%s: LiveAttempts %d, recount %d", when, got, n)
	}
}

// TestLiveAttemptIndexUnderKillsAndDriverCrash samples the index through
// a run that kills attempts every way the driver sees: a fail-stop node,
// flaky attempts, speculative losers, and a driver crash whose recovery
// re-adopts the survivors.
func TestLiveAttemptIndexUnderKillsAndDriverCrash(t *testing.T) {
	w := newWorld(t)
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.TaskFlake, Node: "fast", At: 0.5, Duration: 3, Factor: 0.5},
		{Kind: faults.NodeCrash, Node: "slow", At: 1.0, Duration: 1.0},
		{Kind: faults.DriverCrash, At: 2.5, Duration: 0.5},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed:              3,
		HeartbeatInterval: 0.25, HeartbeatTimeout: 1,
		SpeculationInterval: 0.25, SpeculationQuantile: 0.1, SpeculationMultiplier: 1.05,
		TaskMaxFailures: 8,
		Faults:          plan,
	})
	peak := 0
	for i := 1; i <= 400; i++ {
		w.eng.At(float64(i)*0.05, func() {
			checkLiveIndex(t, rt, "sample")
			peak = max(peak, rt.LiveAttempts())
		})
	}
	recovered := false
	rt.OnRecovered = func() {
		recovered = true
		checkLiveIndex(t, rt, "after recovery")
	}
	res := rt.Run(simpleApp(w, 3))
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	checkLiveIndex(t, rt, "end")
	if n := rt.LiveAttempts(); n != 0 {
		t.Fatalf("%d attempts still registered after the run", n)
	}
	if !recovered || res.DriverRecoveries != 1 {
		t.Fatalf("driver recoveries %d, want 1", res.DriverRecoveries)
	}
	recs, err := wal.ReadRecords(bytes.NewReader(rt.WAL().Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	adopted, killed := 0, 0
	for _, r := range recs {
		switch {
		case r.Kind == wal.KindTaskAdopted:
			adopted++
		case r.Kind == wal.KindAttemptEnded && r.Outcome != "success":
			killed++
		}
	}
	if adopted == 0 || killed == 0 || res.SpecCopies == 0 || peak == 0 {
		t.Fatalf("adopted %d, ended early %d, speculative copies %d, peak live %d: "+
			"the paths under test did not all run", adopted, killed, res.SpecCopies, peak)
	}
}

// TestLiveAttemptIndexAfterAbort aborts a job while attempts are in
// flight: the abort's kill-and-reset must leave an empty index.
func TestLiveAttemptIndexAfterAbort(t *testing.T) {
	w := newWorld(t)
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.TaskFlake, Node: "fast", At: 0, Duration: 100, Factor: 1},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, TaskMaxFailures: 1, Faults: plan,
	})
	w.eng.At(0.5, func() { checkLiveIndex(t, rt, "before abort") })
	res := rt.Run(simpleApp(w, 2))
	if res.Aborted == nil {
		t.Fatal("run did not abort")
	}
	checkLiveIndex(t, rt, "after abort")
	if n := rt.LiveAttempts(); n != 0 || len(rt.runningAtt) != 0 {
		t.Fatalf("after abort: %d live attempts, %d entries", n, len(rt.runningAtt))
	}
	// The abort itself must have killed attempts that were in flight.
	killedAtAbort := 0
	for _, tk := range res.App.AllTasks() {
		for _, m := range tk.Attempts {
			if m.Killed && m.End == rt.appEnd {
				killedAtAbort++
			}
		}
	}
	if killedAtAbort == 0 {
		t.Fatal("no attempt was in flight at the abort; the reset was not exercised")
	}
}
