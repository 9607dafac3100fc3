package chaos

import (
	"bytes"
	"strings"
	"testing"
)

// testSeeds returns a soak test's seed budget, seeds 1..n: n = short
// under -short and n = full otherwise. Fixed (not time-derived) so CI
// failures reproduce with `go test -run TestChaosSoak`.
func testSeeds(short, full int) []uint64 {
	n := full
	if testing.Short() {
		n = short
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return seeds
}

// TestChaosSoak is the soak invariant battery: random fault plans against
// both schedulers, every invariant checked after every run, every seed
// run twice for bit-identity.
func TestChaosSoak(t *testing.T) {
	rep := Soak(Config{Seeds: testSeeds(4, 12)})
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("scheduler=%s seed=%d: %s", rec.Scheduler, rec.Seed, v)
		}
	}
	if t.Failed() {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Logf("full report:\n%s", buf.String())
	}
}

// TestSoakDeterministicReport re-runs a tiny sweep and requires the whole
// JSON artifact — not just per-run fingerprints — to be byte-identical.
func TestSoakDeterministicReport(t *testing.T) {
	cfg := Config{Seeds: []uint64{3, 7}}
	var a, b bytes.Buffer
	if err := Soak(cfg).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Soak(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("sweep artifact differs between identical invocations:\n%s\n---\n%s",
			a.String(), b.String())
	}
}

// TestSoakExercisesFaults guards against the harness silently generating
// schedules that never touch the run: across the sweep, at least some
// runs must observe gray failures (flakes) and fault-tolerance activity.
func TestSoakExercisesFaults(t *testing.T) {
	rep := Soak(Config{Seeds: testSeeds(4, 12), SkipVerify: true})
	flakes, lost, events := 0, 0, 0
	for _, rec := range rep.Runs {
		flakes += rec.TaskFlakes
		lost += rec.ExecutorsLost
		events += rec.Events
	}
	if events == 0 {
		t.Fatal("sweep generated zero fault events")
	}
	if flakes == 0 {
		t.Error("no run observed a task flake; gray-failure path not exercised")
	}
	if lost == 0 {
		t.Error("no run lost an executor; crash/heartbeat path not exercised")
	}
}

// TestSoakUnknownScheduler: a bad scheduler name must surface as a
// recorded panic violation, not crash the sweep.
func TestSoakUnknownScheduler(t *testing.T) {
	rep := Soak(Config{Seeds: []uint64{1}, Schedulers: []string{"nope"}})
	if rep.Violations == 0 {
		t.Fatal("expected a violation for unknown scheduler")
	}
	if !strings.Contains(rep.Runs[0].Violations[0], "unknown scheduler") {
		t.Fatalf("unexpected violation: %v", rep.Runs[0].Violations)
	}
}
