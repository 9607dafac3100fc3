package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestElasticGateNeedsFullSweep: below GateSeeds the frontier is reported
// but not gated. On seeds 1–2 the graceful drain's mean makespan is above
// the notice-blind baseline's, so a gated run would fail; the short sweep
// must pass with the not-evaluated line instead.
func TestElasticGateNeedsFullSweep(t *testing.T) {
	res := Elastic(ElasticConfig{Seeds: []uint64{1, 2}})
	var b bytes.Buffer
	res.Print(&b)
	out := b.String()
	if res.Violations != 0 || len(res.FrontierViolations) != 0 {
		t.Fatalf("short sweep gated:\n%s", out)
	}
	var drain, blind float64
	for _, s := range res.Frontier {
		switch s.Policy {
		case "spot-heavy":
			drain = s.MeanMakespan
		case "spot-heavy-ignore":
			blind = s.MeanMakespan
		}
	}
	if drain < blind {
		t.Fatalf("seeds 1–2 no longer put the graceful drain (%.1fs) above notice-blind (%.1fs); pick a short sweep that does", drain, blind)
	}
	if !strings.Contains(out, "frontier gate not evaluated: 2 seeds, fewer than 5\n") || !strings.Contains(out, "cost-vs-makespan frontier") {
		t.Fatalf("short sweep report wrong:\n%s", out)
	}
}
