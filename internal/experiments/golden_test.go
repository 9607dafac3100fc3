package experiments_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
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

// goldenElastic pins the default elastic sweep (seeds 1–5, as
// rupam-bench -experiment elastic runs it): FNV-64a digests of its JSON
// report and of its printout. Its autoscaler is the one reader of
// core.CharDB.MeanComputeTime, so a change to what that mean averages
// shows here if it moves an acquisition. Generated before the change it
// guards and never regenerated.
var goldenElastic = struct{ json, print string }{"d0d30b813ca270bc", "7796b47b33d03f18"}

func TestGoldenElasticReport(t *testing.T) {
	res := experiments.Elastic(experiments.ElasticConfig{Seeds: []uint64{1, 2, 3, 4, 5}})
	var j, p bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	res.Print(&p)
	if got := fnvHex(j.Bytes()); got != goldenElastic.json {
		t.Errorf("elastic sweep: JSON digest %s, golden %s", got, goldenElastic.json)
	}
	if got := fnvHex(p.Bytes()); got != goldenElastic.print {
		t.Errorf("elastic sweep: printout digest %s, golden %s\n%s", got, goldenElastic.print, p.String())
	}
}

// fnvHex is the FNV-64a digest of b in hex.
func fnvHex(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}
