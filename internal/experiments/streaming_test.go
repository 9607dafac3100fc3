package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestStreamingGate runs the default sweep and requires the paper's
// placement ordering to hold on mean sustained throughput, with zero
// per-run invariant violations.
func TestStreamingGate(t *testing.T) {
	res := Streaming(StreamingConfig{Seeds: []uint64{1, 2, 3, 4, 5}})
	if res.Violations != 0 {
		var b bytes.Buffer
		res.Print(&b)
		t.Fatalf("streaming sweep violations:\n%s", b.String())
	}
	if len(res.Runs) != 15 {
		t.Fatalf("expected 5 seeds × 3 placers = 15 runs, got %d", len(res.Runs))
	}
	for _, run := range res.Runs {
		if !run.Drained {
			t.Errorf("%s/%d did not drain", run.Placer, run.Seed)
		}
		if run.ThroughputHz <= 0 {
			t.Errorf("%s/%d: zero throughput", run.Placer, run.Seed)
		}
	}
}

// TestStreamingGateNeedsFullSweep: below GateSeeds the ordering
// is reported but not gated. Seeds 1–2 are a sweep on which the
// resource-aware mean falls below round-robin's, so a gated run would
// fail; the short sweep must pass with the not-evaluated line instead of
// the verdict.
func TestStreamingGateNeedsFullSweep(t *testing.T) {
	res := Streaming(StreamingConfig{Seeds: []uint64{1, 2}})
	var b bytes.Buffer
	res.Print(&b)
	if res.Violations != 0 || len(res.GateViolations) != 0 {
		t.Fatalf("short sweep gated:\n%s", b.String())
	}
	var resource, deflt float64
	for _, s := range res.Summary {
		switch s.Placer {
		case "resource":
			resource = s.MeanThroughput
		case "default":
			deflt = s.MeanThroughput
		}
	}
	if resource >= deflt {
		t.Fatalf("seeds 1–2 no longer invert resource (%.1f Hz) and default (%.1f Hz); pick a short sweep that does", resource, deflt)
	}
	out := b.String()
	if !strings.Contains(out, "placement gate not evaluated: 2 seeds") || strings.Contains(out, "placement gate holds") {
		t.Fatalf("short sweep verdict wrong:\n%s", out)
	}
}

// TestStreamingArtifacts checks the JSON and CSV emitters round-trip the
// fields the CI plots consume.
func TestStreamingArtifacts(t *testing.T) {
	res := Streaming(StreamingConfig{Seeds: []uint64{1}, Horizon: 40})
	var j bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"placer\": \"rupam\"", "\"mean_throughput_hz\""} {
		if !strings.Contains(j.String(), want) {
			t.Fatalf("JSON artifact missing %q:\n%s", want, j.String())
		}
	}
	var c bytes.Buffer
	if err := res.WriteThroughputCSV(&c); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(c.String()), "\n")
	if len(lines) != 1+len(res.Runs) {
		t.Fatalf("CSV has %d lines, want header + %d runs", len(lines), len(res.Runs))
	}
	if lines[0] != "placer,seed,throughput_hz,offered_hz,p50_ms,p99_ms,slo_attain" {
		t.Fatalf("CSV header = %q", lines[0])
	}
}
