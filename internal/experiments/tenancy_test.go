package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestTenancySweep runs a reduced sweep and checks the artifact contract:
// no invariant violations, every run completed work, slowdowns populated
// for pools that completed applications, and a parseable CSV.
func TestTenancySweep(t *testing.T) {
	res := Tenancy(TenancyConfig{Seeds: []uint64{1}, Apps: 6, MeanGap: 20})
	if res.Violations != 0 {
		for _, run := range res.Runs {
			for _, v := range run.Violations {
				t.Errorf("%s seed %d: %s", run.Scheduler, run.Seed, v)
			}
		}
	}
	if len(res.Runs) != 2 {
		t.Fatalf("expected 2 runs (1 seed x 2 schedulers), got %d", len(res.Runs))
	}
	for _, run := range res.Runs {
		if run.Completed == 0 {
			t.Errorf("%s seed %d completed nothing", run.Scheduler, run.Seed)
		}
		slowdowns := 0
		for _, p := range run.Pools {
			if p.MeanSlowdown > 0 {
				slowdowns++
			}
		}
		if slowdowns == 0 {
			t.Errorf("%s seed %d: no pool got a slowdown baseline", run.Scheduler, run.Seed)
		}
	}

	var csv bytes.Buffer
	if err := res.WritePoolCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	// Header plus at least one pool row per run.
	if len(lines) < 1+len(res.Runs) {
		t.Fatalf("pool CSV too short:\n%s", csv.String())
	}
	wantCols := len(strings.Split(lines[0], ","))
	for _, ln := range lines[1:] {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Fatalf("ragged CSV row (%d cols, want %d): %s", got, wantCols, ln)
		}
	}
}

// TestTenancySweepDeterministic requires the whole JSON artifact to be
// byte-identical across invocations.
func TestTenancySweepDeterministic(t *testing.T) {
	cfg := TenancyConfig{Seeds: []uint64{3}, Apps: 5, MeanGap: 15}
	var a, b bytes.Buffer
	if err := Tenancy(cfg).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Tenancy(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("tenancy sweep artifact differs between identical invocations")
	}
}
