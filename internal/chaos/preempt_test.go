package chaos

import (
	"bytes"
	"testing"
)

// TestPreemptionSoak is the graceful-drain acceptance battery: market-
// hazard spot plans against elastic multi-tenant runs under both
// schedulers. Every notice must resolve, fenced nodes must see no
// launches, relocated outputs must survive their kill, announced losses
// must stay uncharged, the market must conserve instances and leases, and
// every seed must reproduce bit-identically.
func TestPreemptionSoak(t *testing.T) {
	rep := PreemptionSoak(PreemptConfig{Seeds: testSeeds(2, 20)})
	sawKill := false
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("scheduler=%s seed=%d: %s", rec.Scheduler, rec.Seed, v)
		}
		if rec.Kills > 0 {
			sawKill = true
		}
	}
	if !sawKill {
		t.Error("no run saw a spot kill — the sweep exercised nothing")
	}
	if t.Failed() {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Logf("full report:\n%s", buf.String())
	}
}

// TestPreemptionSoakIgnoreNotices guards the notice-blind baseline the
// elastic experiment measures against: same plans, notices dropped, kills
// discovered by heartbeat timeout. The manager-level battery (lease
// conservation, market end-state, bit-identity) must still hold even
// though the drain protocol never runs.
func TestPreemptionSoakIgnoreNotices(t *testing.T) {
	rep := PreemptionSoak(PreemptConfig{
		Seeds:         testSeeds(2, 2),
		IgnoreNotices: true,
	})
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("scheduler=%s seed=%d: %s", rec.Scheduler, rec.Seed, v)
		}
	}
}

// TestPreemptReportDeterministic requires the whole JSON artifact to be
// byte-identical across invocations.
func TestPreemptReportDeterministic(t *testing.T) {
	cfg := PreemptConfig{Seeds: []uint64{3}, Schedulers: []string{"rupam"}, SkipVerify: true}
	var a, b bytes.Buffer
	if err := PreemptionSoak(cfg).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := PreemptionSoak(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("preempt artifact differs between identical invocations:\n%s\n---\n%s",
			a.String(), b.String())
	}
}
