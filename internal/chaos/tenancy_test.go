package chaos

import (
	"bytes"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/faults"
)

// TestTenancySoak is the cross-application isolation battery: random
// fault plans (including a routed driver crash) against whole arrival
// streams under both schedulers; the tenant manager's invariants and each
// application's own accounting must hold, and every seed must reproduce
// bit-identically.
func TestTenancySoak(t *testing.T) {
	rep := TenancySoak(TenancyConfig{Seeds: testSeeds(2, 6)})
	for _, rec := range rep.Runs {
		for _, v := range rec.Violations {
			t.Errorf("scheduler=%s seed=%d: %s", rec.Scheduler, rec.Seed, v)
		}
		if rec.Arrived != rec.Admitted+rec.Rejected {
			t.Errorf("scheduler=%s seed=%d: admission accounting %d != %d + %d",
				rec.Scheduler, rec.Seed, rec.Arrived, rec.Admitted, rec.Rejected)
		}
	}
	if t.Failed() {
		var buf bytes.Buffer
		rep.Print(&buf)
		t.Logf("full report:\n%s", buf.String())
	}
}

// TestTenancySoakRoutesDriverCrash guards the crash-routing path: with a
// plan that contains a driver crash, some run in the sweep must actually
// crash and recover a tenant driver (visible as a completed run —
// recovery worked — under a plan whose events include DriverCrash).
func TestTenancySoakRoutesDriverCrash(t *testing.T) {
	gen := TenancyGen()
	rep := TenancySoak(TenancyConfig{
		Seeds:      []uint64{2},
		Schedulers: []string{"spark"},
		SkipVerify: true,
	})
	if rep.Violations != 0 {
		for _, rec := range rep.Runs {
			for _, v := range rec.Violations {
				t.Errorf("%s", v)
			}
		}
	}
	plan := faults.RandomSchedule(2, cluster.HydraNodeNames(), gen)
	if !plan.HasKind(faults.DriverCrash) {
		t.Fatal("TenancyGen produced no driver crash for seed 2")
	}
	if rep.Runs[0].Completed == 0 {
		t.Fatal("no application survived the driver-crash plan")
	}
}

// TestTenancyReportDeterministic requires the whole JSON artifact to be
// byte-identical across invocations.
func TestTenancyReportDeterministic(t *testing.T) {
	cfg := TenancyConfig{Seeds: []uint64{4}, Schedulers: []string{"rupam"}, SkipVerify: true}
	var a, b bytes.Buffer
	if err := TenancySoak(cfg).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := TenancySoak(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("tenancy artifact differs between identical invocations:\n%s\n---\n%s",
			a.String(), b.String())
	}
}
