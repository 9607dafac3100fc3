package streaming_test

import (
	"testing"

	"rupam/internal/chaos"
	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/streaming"
)

// TestNodeIndexMatchesNames runs the benchmark's topology envelope under
// the chaos soak's streaming fault plans (crashes, gray CPU windows, a
// spot reclamation, a load spike) with one forced migration, for every
// placer, and checks the node index around every tick.
func TestNodeIndexMatchesNames(t *testing.T) {
	nodes := cluster.NewHydra(cluster.New(simx.NewEngine())).NodeNames()
	migrations := 0
	for seed := uint64(1); seed <= 6; seed++ {
		plan := faults.RandomSchedule(seed, nodes, chaos.StreamingGen())
		for _, placer := range streaming.PlacerNames {
			problems := 0
			res := streaming.RunCheckingIndex(streaming.Config{
				Seed:           seed,
				Placer:         placer,
				Topo:           streaming.BenchEnvelope(),
				Horizon:        90,
				Warmup:         18,
				Faults:         plan,
				ForceMigrateAt: 36,
			}, func(p string) {
				if problems++; problems <= 5 {
					t.Errorf("%s seed %d: %s", placer, seed, p)
				}
			})
			migrations += len(res.Migrations)
		}
	}
	if migrations == 0 {
		t.Fatal("no run migrated an operator, so no re-homing was checked")
	}
}
