package experiments_test

import (
	"testing"

	"rupam/internal/chaos"
	"rupam/internal/experiments"
)

// goldenAblations pins every ablationCases run at one seed: the run
// fingerprint and the engine's event count. Fig 5's golden entries pin
// only the default core.Config; these cover the Disable* switches and
// Res_factor settings. Each entry was generated before the change it
// guards and is never regenerated.
var goldenAblations = []struct {
	name, workload string
	fingerprint    string
	events         uint64
}{
	{"full", "LR", "5761bbb605c6a172", 7382},
	{"no-locking", "LR", "3ccf548da25fcbc4", 7150},
	{"full", "PR", "0df6a38f0df7cf4b", 20951},
	{"no-mem-aware", "PR", "7b6e0ea612935182", 187468},
	{"full", "TeraSort", "6992da329003bd2a", 12658},
	{"no-round-robin", "TeraSort", "dc6836b87ae428a6", 12848},
	{"full", "KMeans", "e309943e26520300", 3350},
	{"no-gpu-race", "KMeans", "0058879aa1c77164", 2921},
	{"res-factor-1", "LR", "6e29bfcf8364c07f", 7625},
	{"res-factor-4", "LR", "ac36377749007dd6", 7282},
}

// goldenAblationSeed is the run seed of every goldenAblations entry.
const goldenAblationSeed = 1

func TestGoldenAblationFingerprints(t *testing.T) {
	cases := experiments.AblationCases()
	if len(goldenAblations) != len(cases) {
		t.Fatalf("golden table has %d runs, want %d", len(goldenAblations), len(cases))
	}
	for i, c := range cases {
		g := goldenAblations[i]
		rt, app := experiments.NewRun(experiments.RunSpec{
			Workload: c.Workload, Scheduler: experiments.SchedRUPAM, RUPAM: c.RUPAM, Seed: goldenAblationSeed,
		})
		res := rt.Run(app)
		if res.Aborted != nil {
			t.Errorf("%s/%s aborted: %v", c.Name, c.Workload, res.Aborted)
		}
		fp, events := chaos.Fingerprint(res), rt.Eng.Fired()
		if c.Name != g.name || c.Workload != g.workload || fp != g.fingerprint || events != g.events {
			t.Errorf("%s/%s: fingerprint %s, %d events; golden %s/%s %s, %d events",
				c.Name, c.Workload, fp, events, g.name, g.workload, g.fingerprint, g.events)
		}
	}
}
