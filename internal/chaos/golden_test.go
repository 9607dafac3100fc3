package chaos

import (
	"fmt"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/streaming"
)

// The golden tables pin soak fingerprints across commits: a changed
// fingerprint is a behaviour change, never a refactoring side effect.
// The in-process re-run checks in each soak only prove determinism
// within one binary; these literals prove it across versions of the
// simulator. Do not regenerate them to make a change pass — a moved
// entry means the change altered a simulated trajectory.
var goldenSoak = []struct {
	scheduler   string
	seed        uint64
	fingerprint string
}{
	{"spark", 1, "895aa5cfa606444c"},
	{"rupam", 1, "92d84c169506b062"},
	{"spark", 2, "59cab44e2f272dcc"},
	{"rupam", 2, "a72aa05a4809de9f"},
}

var goldenFederation = []struct {
	seed        uint64
	fingerprint string
}{
	{1, "4b9e1ccbc298174e"},
}

var goldenStreaming = []struct {
	placer      string
	seed        uint64
	fingerprint string
}{
	{"default", 1, "644a47d7a7e442a8"},
	{"resource", 1, "c2eb2cb8d87724de"},
	{"rupam", 1, "e0407fd05c276141"},
}

func TestGoldenSoakFingerprints(t *testing.T) {
	rep := Soak(Config{Seeds: []uint64{1, 2}, SkipVerify: true})
	if rep.Violations != 0 {
		t.Fatalf("soak reported %d violations", rep.Violations)
	}
	if len(rep.Runs) != len(goldenSoak) {
		t.Fatalf("%d runs, golden table has %d", len(rep.Runs), len(goldenSoak))
	}
	for i, g := range goldenSoak {
		r := rep.Runs[i]
		if r.Scheduler != g.scheduler || r.Seed != g.seed || r.Fingerprint != g.fingerprint {
			t.Errorf("run %d: %s seed %d fingerprint %s, golden %s seed %d %s",
				i, r.Scheduler, r.Seed, r.Fingerprint, g.scheduler, g.seed, g.fingerprint)
		}
	}
}

func TestGoldenFederationFingerprints(t *testing.T) {
	rep := FederationSoak(FederationConfig{Seeds: []uint64{1}, SkipVerify: true})
	if rep.Violations != 0 {
		t.Fatalf("federation soak reported %d violations", rep.Violations)
	}
	if len(rep.Runs) != len(goldenFederation) {
		t.Fatalf("%d runs, golden table has %d", len(rep.Runs), len(goldenFederation))
	}
	for i, g := range goldenFederation {
		r := rep.Runs[i]
		if r.Seed != g.seed || r.Fingerprint != g.fingerprint {
			t.Errorf("run %d: seed %d fingerprint %s, golden seed %d %s",
				i, r.Seed, r.Fingerprint, g.seed, g.fingerprint)
		}
	}
}

func TestGoldenStreamingFingerprints(t *testing.T) {
	rep := StreamingSoak(StreamingConfig{Seeds: []uint64{1}, SkipVerify: true})
	if rep.Violations != 0 {
		t.Fatalf("streaming soak reported %d violations", rep.Violations)
	}
	if len(rep.Runs) != len(goldenStreaming) {
		t.Fatalf("%d runs, golden table has %d", len(rep.Runs), len(goldenStreaming))
	}
	for i, g := range goldenStreaming {
		r := rep.Runs[i]
		if r.Placer != g.placer || r.Seed != g.seed || r.Fingerprint != g.fingerprint {
			t.Errorf("run %d: %s seed %d fingerprint %s, golden %s seed %d %s",
				i, r.Placer, r.Seed, r.Fingerprint, g.placer, g.seed, g.fingerprint)
		}
	}
}

// goldenStreamingEnvelope pins streaming runs on the streaming-faults
// benchmark envelope (benchEnvelope): deeper, wider and hotter topologies
// than the soak default, each under a StreamingGen fault plan and a
// forced migration, for every placer.
var goldenStreamingEnvelope = []struct {
	placer      string
	seed        uint64
	fingerprint string
}{
	{"default", 1, "b495c386da4e655e"},
	{"resource", 1, "afd0d523b05d19b1"},
	{"rupam", 1, "6deff943ac97df6f"},
	{"default", 2, "2b6d2f2420f73346"},
	{"resource", 2, "e71b048d8712f7cb"},
	{"rupam", 2, "ba3a95ad97f0601c"},
}

// benchEnvelope is the topology envelope of the benchmark's
// streaming-faults workload: parallelism 12–24 and offered load near
// what a good placement can sustain.
func benchEnvelope() streaming.TopoConfig {
	return streaming.TopoConfig{
		Sources: 3, Layers: 4, WidthMin: 3, WidthMax: 4,
		RateMin: 4000, RateMax: 7000,
		CyclesMin: 2e-4, CyclesMax: 4.5e-4,
		SelMin: 0.6, SelMax: 1.05,
		ParMin: 12, ParMax: 24,
	}
}

func TestGoldenStreamingEnvelopeFingerprints(t *testing.T) {
	const horizon = 90
	nodes := cluster.NewHydra(cluster.New(simx.NewEngine())).NodeNames()
	for _, g := range goldenStreamingEnvelope {
		res := streaming.Run(streaming.Config{
			Seed:           g.seed,
			Placer:         g.placer,
			Topo:           benchEnvelope(),
			Horizon:        horizon,
			Warmup:         horizon / 5,
			Faults:         faults.RandomSchedule(g.seed, nodes, StreamingGen()),
			ForceMigrateAt: horizon * 0.4,
		})
		if v := streaming.CheckInvariants(res); len(v) != 0 {
			t.Errorf("%s seed %d: invariant violations: %v", g.placer, g.seed, v)
		}
		if fp := fmt.Sprintf("%016x", res.Fingerprint()); fp != g.fingerprint {
			t.Errorf("%s seed %d: fingerprint %s, golden %s", g.placer, g.seed, fp, g.fingerprint)
		}
	}
}
