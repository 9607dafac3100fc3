package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestFederationSweep runs a reduced scaling sweep and checks the claim
// the experiment exists to make: placement throughput grows monotonically
// with the driver count while makespan does not degrade beyond 5% of the
// single-driver baseline. Also checks the CSV artifact contract.
func TestFederationSweep(t *testing.T) {
	res := Federation(FederationConfig{Seeds: []uint64{1, 2, 3}})
	if res.Violations != 0 {
		t.Fatalf("%d invariant violations in fault-free sweep", res.Violations)
	}
	if want := 3 * len(res.Config.DriverCounts); len(res.Rows) != want {
		t.Fatalf("expected %d rows, got %d", want, len(res.Rows))
	}

	prev := 0.0
	for _, n := range res.Config.DriverCounts {
		rate := res.MeanRate(n)
		if rate <= prev {
			t.Errorf("placement rate not monotone: %d drivers at %.1f/s, previous level %.1f/s", n, rate, prev)
		}
		prev = rate
	}

	base := res.MeanMakespan(1)
	if base <= 0 {
		t.Fatal("no single-driver baseline")
	}
	for _, n := range res.Config.DriverCounts {
		if mk := res.MeanMakespan(n); mk > base*1.05 {
			t.Errorf("%d drivers: makespan %.1fs degrades >5%% over single-driver %.1fs", n, mk, base)
		}
	}

	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(res.Rows) {
		t.Fatalf("CSV row count: got %d lines, want %d", len(lines), 1+len(res.Rows))
	}
	wantCols := len(strings.Split(lines[0], ","))
	for _, ln := range lines[1:] {
		if got := len(strings.Split(ln, ",")); got != wantCols {
			t.Fatalf("ragged CSV row (%d cols, want %d): %s", got, wantCols, ln)
		}
	}

	// Churn column: every cell ran its agent-fault twin, every churn run
	// actually suffered agent crashes, and the envelope gate held.
	if len(res.ChurnRows) != len(res.Rows) {
		t.Fatalf("churn rows: got %d, want %d", len(res.ChurnRows), len(res.Rows))
	}
	for _, row := range res.ChurnRows {
		if row.AgentCrashes == 0 {
			t.Errorf("%d drivers seed %d: churn run saw no agent crash", row.Drivers, row.Seed)
		}
		if row.Resyncs == 0 {
			t.Errorf("%d drivers seed %d: churn run closed no resync", row.Drivers, row.Seed)
		}
	}
	if len(res.Gates) != 0 {
		t.Errorf("churn envelope gate failed: %v", res.Gates)
	}

	var churn bytes.Buffer
	if err := res.WriteChurnCSV(&churn); err != nil {
		t.Fatal(err)
	}
	clines := strings.Split(strings.TrimSpace(churn.String()), "\n")
	if len(clines) != 1+len(res.ChurnRows) {
		t.Fatalf("churn CSV row count: got %d lines, want %d", len(clines), 1+len(res.ChurnRows))
	}
	ccols := len(strings.Split(clines[0], ","))
	for _, ln := range clines[1:] {
		if got := len(strings.Split(ln, ",")); got != ccols {
			t.Fatalf("ragged churn CSV row (%d cols, want %d): %s", got, ccols, ln)
		}
	}
}

// TestFederationChurnGateTrips pins the gate's failure path: a driver
// count whose mean churn makespan exceeds the envelope must trip and be
// counted as a violation, and one within it must not.
func TestFederationChurnGateTrips(t *testing.T) {
	res := &FederationResult{
		Config: FederationConfig{DriverCounts: []int{1, 2}},
		Rows:   []FederationRow{{Drivers: 1, MakespanS: 100}, {Drivers: 2, MakespanS: 100}},
		ChurnRows: []FederationChurnRow{
			{Drivers: 1, MakespanS: 110},
			{Drivers: 2, MakespanS: 200},
		},
	}
	res.gateChurn()
	if len(res.Gates) != 1 || !strings.HasPrefix(res.Gates[0], "2 drivers:") {
		t.Fatalf("churn gate verdicts %q, want exactly the 2-driver cell", res.Gates)
	}
	if res.Violations != 1 {
		t.Fatalf("tripped gate counted as %d violations, want 1", res.Violations)
	}
}

// TestFederationSweepDeterministic requires the whole JSON artifact to be
// byte-identical across invocations.
func TestFederationSweepDeterministic(t *testing.T) {
	cfg := FederationConfig{Seeds: []uint64{5}, DriverCounts: []int{1, 2}}
	var a, b bytes.Buffer
	if err := Federation(cfg).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Federation(cfg).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("federation sweep artifact differs between identical invocations")
	}
}
