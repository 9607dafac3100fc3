package chaos

import (
	"fmt"
	"testing"

	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/tracing"
	"rupam/internal/workloads"
)

// TestBlacklistHeavyRunsSameTracedAndUntraced: under a plan whose task
// flakes blacklist nodes and task-node pairings, attaching a decision
// audit changes no decision. The default scheduler checks the blacklist
// for every candidate only when audited, and otherwise only for a
// candidate that would become the best; both must pick the same tasks.
// Blocked pairings are rare even under heavy flaking (a node usually
// crosses its own threshold first), so the test runs the seeds whose
// audits list one behind an unblocked winner.
func TestBlacklistHeavyRunsSameTracedAndUntraced(t *testing.T) {
	var events []faults.Event
	for _, class := range []string{"thor", "hulk", "stack"} {
		for i := 1; i <= 2; i++ {
			node := fmt.Sprintf("%s%d", class, i)
			events = append(events, faults.Event{Kind: faults.TaskFlake, Node: node, At: 0.5, Duration: 600, Factor: 0.3})
		}
	}
	cfg := experiments.HardenedConfig()
	cfg.Faults = &faults.Schedule{Events: events}
	run := func(seed uint64, col *tracing.Collector) (string, int) {
		rt, app := experiments.NewRun(experiments.RunSpec{
			Workload:  soakWorkload,
			Params:    workloads.Params{InputGB: 1, Partitions: 16, Iterations: 2},
			Scheduler: experiments.SchedSpark,
			Seed:      seed,
			Spark:     cfg,
			Tracer:    col,
		})
		res := rt.Run(app)
		if res.Aborted != nil {
			t.Fatalf("seed %d: run aborted: %v", seed, res.Aborted)
		}
		return Fingerprint(res), res.NodesBlacklisted
	}
	unpicked := 0
	for _, seed := range []uint64{2, 5, 10} {
		col := tracing.NewCollector()
		traced, blacklisted := run(seed, col)
		if blacklisted == 0 {
			t.Fatalf("seed %d: no node blacklisted", seed)
		}
		for _, d := range col.Decisions() {
			winnerSeen := false
			for _, c := range d.Candidates {
				winnerSeen = winnerSeen || (c.TaskID == d.Winner && c.Rejection == "")
				if winnerSeen && c.Rejection == "blacklisted-pairing" {
					unpicked++
				}
			}
		}
		if untraced, _ := run(seed, nil); traced != untraced {
			t.Fatalf("seed %d: fingerprint %s traced, %s untraced", seed, traced, untraced)
		}
	}
	if unpicked < 5 {
		t.Fatalf("audits list %d blocked pairings behind a winner, want at least 5", unpicked)
	}
}
