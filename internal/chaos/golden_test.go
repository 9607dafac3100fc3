package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/faults"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/streaming"
	"rupam/internal/tenant"
	"rupam/internal/workloads"
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

// goldenFig5 pins the fault-free Fig 5 runs: every Table III workload
// under both schedulers at one seed, on a fresh Hydra cluster built the
// way experiments.Run builds it. Besides the run fingerprint it pins the
// engine's event count and the bytes the network moved, so a change to
// how netsim or the executor schedule their work cannot hide behind an
// unchanged task timeline.
var goldenFig5 = []struct {
	workload, scheduler string
	fingerprint         string
	events              uint64
	netBytes            float64
}{
	{"LR", "spark", "9dcdddb0e55aaf67", 14285, 1.1810763427561773e+10},
	{"LR", "rupam", "d39c84beb14badd5", 7644, 2.8898414629092266e+10},
	{"TeraSort", "spark", "6a6146581125ef0d", 13485, 8.973822815341316e+10},
	{"TeraSort", "rupam", "0a3943e8017647f5", 13051, 8.451791059281561e+10},
	{"SQL", "spark", "1ebaf7ba6e9fca11", 24615, 1.2724758404254208e+11},
	{"SQL", "rupam", "8ad3067269120dee", 21491, 1.0719787834979321e+11},
	{"PR", "spark", "6723f345b78e0055", 30019, 2.7371185236348015e+10},
	{"PR", "rupam", "55c2ce09aa48dd3e", 21369, 2.152361628113869e+10},
	{"TC", "spark", "cdb72edeb5126a07", 9679, 3.036988382434475e+10},
	{"TC", "rupam", "28ad85e6329c6239", 7651, 3.0366650274720257e+10},
	{"GM", "spark", "3cc1deaeb48be34c", 1276, 6.013790929999717e+08},
	{"GM", "rupam", "13df1ba93bf63e8e", 1616, 1.2368161459999983e+09},
	{"KMeans", "spark", "2be6a962db15bbb7", 4191, 3.550282657751972e+09},
	{"KMeans", "rupam", "c962dd6c4ce64c9e", 3408, 1.7814405935258915e+10},
}

// goldenFig5Seed is the run seed of every goldenFig5 entry.
const goldenFig5Seed = 3

// fig5Run is experiments.Run for the Hydra cluster with default
// parameters (experiments imports this package, so it cannot be called
// from here).
func fig5Run(workload, scheduler string, seed uint64) (*spark.Runtime, *spark.Result) {
	eng := simx.NewEngine()
	clu := cluster.New(eng)
	cluster.NewHydra(clu)
	store := hdfs.NewStore(clu.NodeNames(), 2, seed*2654435761+1)
	app := workloads.Build(workload, store, workloads.Params{Seed: seed*7 + 42})
	var sched spark.Scheduler = spark.NewDefaultScheduler()
	if scheduler == "rupam" {
		sched = core.New(core.Config{})
	}
	rt := spark.NewRuntime(eng, clu, sched, spark.Config{Seed: seed*31 + 7, SampleInterval: -1})
	return rt, rt.Run(app)
}

// sentBytes sums the bytes every interface of the cluster sent.
func sentBytes(clu *cluster.Cluster) float64 {
	var sum float64
	for _, n := range clu.Nodes {
		sum += clu.Net.Iface(n.Name()).TotalSent()
	}
	return sum
}

func TestGoldenFig5Fingerprints(t *testing.T) {
	if want := 2 * len(workloads.EvalNames()); len(goldenFig5) != want {
		t.Fatalf("golden table has %d runs, want %d", len(goldenFig5), want)
	}
	for _, g := range goldenFig5 {
		rt, res := fig5Run(g.workload, g.scheduler, goldenFig5Seed)
		if res.Aborted != nil {
			t.Errorf("%s/%s aborted: %v", g.workload, g.scheduler, res.Aborted)
		}
		fp, events, bytes := Fingerprint(res), rt.Eng.Fired(), sentBytes(rt.Clu)
		if fp != g.fingerprint || events != g.events || math.Float64bits(bytes) != math.Float64bits(g.netBytes) {
			t.Errorf("%s/%s: fingerprint %s, %d events, %v bytes; golden %s, %d events, %v bytes",
				g.workload, g.scheduler, fp, events, bytes, g.fingerprint, g.events, g.netBytes)
		}
	}
}

// goldenTenancy pins one fault-free FAIR-pooled tenant.Manager stream
// per scheduler: ten arrivals of the default mix on a shared cluster,
// with the shared engine's event count.
var goldenTenancy = []struct {
	scheduler   string
	seed        uint64
	fingerprint string
	events      uint64
}{
	{"spark", 5, "d2be25457028c756", 27890},
	{"rupam", 5, "6a670373991efcc9", 22552},
}

func TestGoldenTenancyFingerprints(t *testing.T) {
	for _, g := range goldenTenancy {
		m := tenant.NewManager(tenant.Config{
			Scheduler: g.scheduler,
			Seed:      g.seed,
			Arrivals:  tenant.ArrivalConfig{Count: 10},
		})
		rep := m.Run()
		if len(rep.Violations) != 0 {
			t.Errorf("%s: violations: %v", g.scheduler, rep.Violations)
		}
		runs := m.AppRuns()
		if len(runs) == 0 {
			t.Fatalf("%s: no application ran", g.scheduler)
		}
		// Every application shares one engine.
		events := runs[0].Runtime.Eng.Fired()
		if rep.Fingerprint != g.fingerprint || events != g.events {
			t.Errorf("%s seed %d: fingerprint %s, %d events; golden %s, %d events",
				g.scheduler, g.seed, rep.Fingerprint, events, g.fingerprint, g.events)
		}
	}
}

// soakReport is what every soak's report offers its callers.
type soakReport interface {
	WriteJSON(io.Writer) error
	Print(io.Writer)
}

// goldenReports pins whole soak reports, not just their fingerprints:
// FNV-64a digests of each report's JSON artifact and printed table, so a
// moved or renamed field, a changed column or a reworded verdict fails
// even where every fingerprint holds. Each soak runs one seed with
// SkipVerify; the unknown-scheduler sweep pins the panic path.
var goldenReports = []struct {
	name        string
	run         func() soakReport
	json, print string
}{
	{"chaos", func() soakReport {
		return Soak(Config{Seeds: []uint64{1}, SkipVerify: true})
	}, "37cd750b6e476ce5", "d58505a661f4bda2"},
	{"recovery", func() soakReport {
		return RecoverySoak(Config{Seeds: []uint64{1}, SkipVerify: true})
	}, "5020770add14936f", "cbf70768bf4c9cd4"},
	{"tenancy", func() soakReport {
		return TenancySoak(TenancyConfig{Seeds: []uint64{1}, SkipVerify: true})
	}, "04387b4bc5c42fcc", "0dbdf49c5b36285d"},
	{"preempt", func() soakReport {
		return PreemptionSoak(PreemptConfig{Seeds: []uint64{1}, SkipVerify: true})
	}, "63bc5e04b8c95f71", "93f9984e0be42963"},
	{"federation", func() soakReport {
		return FederationSoak(FederationConfig{Seeds: []uint64{1}, SkipVerify: true})
	}, "0b6b484b5fd78d55", "ebc7eb529cd89e62"},
	{"streaming", func() soakReport {
		return StreamingSoak(StreamingConfig{Seeds: []uint64{1}, SkipVerify: true})
	}, "599839c66e5efd27", "5f8030e712697700"},
	{"unknown-scheduler", func() soakReport {
		return Soak(Config{Seeds: []uint64{1}, Schedulers: []string{"nope"}})
	}, "91acc9b5c728198a", "b59e2da1c6ed920a"},
}

// bytesDigest is the FNV-64a digest of b in hex.
func bytesDigest(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestGoldenReportBytes(t *testing.T) {
	for _, g := range goldenReports {
		rep := g.run()
		var j, p bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		rep.Print(&p)
		if got := bytesDigest(j.Bytes()); got != g.json {
			t.Errorf("%s: JSON digest %s, golden %s\n%s", g.name, got, g.json, j.String())
		}
		if got := bytesDigest(p.Bytes()); got != g.print {
			t.Errorf("%s: printout digest %s, golden %s\n%s", g.name, got, g.print, p.String())
		}
	}
}
