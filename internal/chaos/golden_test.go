package chaos

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"testing"

	"rupam/internal/cluster"
	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/federation"
	"rupam/internal/streaming"
	"rupam/internal/tenant"
	"rupam/internal/wal"
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

// envelopeConfigs returns the run configuration of every
// goldenStreamingEnvelope entry, in table order.
func envelopeConfigs() []streaming.Config {
	const horizon = 90
	nodes := cluster.HydraNodeNames()
	cfgs := make([]streaming.Config, len(goldenStreamingEnvelope))
	for i, g := range goldenStreamingEnvelope {
		cfgs[i] = streaming.Config{
			Seed:           g.seed,
			Placer:         g.placer,
			Topo:           benchEnvelope(),
			Horizon:        horizon,
			Warmup:         horizon / 5,
			Faults:         faults.RandomSchedule(g.seed, nodes, StreamingGen()),
			ForceMigrateAt: horizon * 0.4,
		}
	}
	return cfgs
}

func TestGoldenStreamingEnvelopeFingerprints(t *testing.T) {
	for i, cfg := range envelopeConfigs() {
		g := goldenStreamingEnvelope[i]
		res := streaming.Run(cfg)
		if v := streaming.CheckInvariants(res); len(v) != 0 {
			t.Errorf("%s seed %d: invariant violations: %v", g.placer, g.seed, v)
		}
		if fp := fmt.Sprintf("%016x", res.Fingerprint()); fp != g.fingerprint {
			t.Errorf("%s seed %d: fingerprint %s, golden %s", g.placer, g.seed, fp, g.fingerprint)
		}
	}
}

// TestStreamingEnvelopeAllocBudget caps the heap bytes one faulted run on
// the benchmark envelope allocates, averaged over the golden envelope
// runs. Keeping every raw sink latency sample, re-sorting a copy of them,
// or keying per-operator state by map costs well over the budget.
func TestStreamingEnvelopeAllocBudget(t *testing.T) {
	const budgetKB = 400
	cfgs := envelopeConfigs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cfg := range cfgs {
		streaming.Run(cfg)
	}
	runtime.ReadMemStats(&after)
	perRunKB := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(cfgs)) / 1024
	t.Logf("%.0f KB allocated per run", perRunKB)
	if perRunKB > budgetKB {
		t.Errorf("envelope runs allocated %.0f KB each, budget %d KB", perRunKB, budgetKB)
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
		rt, app := experiments.NewRun(experiments.RunSpec{Workload: g.workload, Scheduler: g.scheduler, Seed: goldenFig5Seed})
		res := rt.Run(app)
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
// SkipVerify; the unknown-scheduler sweep pins the panic path, and
// preempt-blind pins the notice-blind substrate beside graceful drain.
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
	}, "3eb122e7cf04dac6", "6ac6b1676dd8f0d5"},
	{"tenancy", func() soakReport {
		return TenancySoak(TenancyConfig{Seeds: []uint64{1}, SkipVerify: true})
	}, "04387b4bc5c42fcc", "0dbdf49c5b36285d"},
	{"preempt", func() soakReport {
		return PreemptionSoak(PreemptConfig{Seeds: []uint64{1}, SkipVerify: true})
	}, "63bc5e04b8c95f71", "93f9984e0be42963"},
	{"preempt-blind", func() soakReport {
		return PreemptionSoak(PreemptConfig{Seeds: []uint64{1}, IgnoreNotices: true, SkipVerify: true})
	}, "af6dcb7242427b13", "f5fdab46cdb75085"},
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

// streamDigest formats a log's digest of every byte it has written as
// bytesDigest formats a digest of those bytes.
func streamDigest(l *wal.Log) string { return fmt.Sprintf("%016x", l.StreamDigest()) }

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

// goldenWAL pins the write-ahead log's bytes, not just the state they
// replay to: FNV-64a digests of the full stream of every application log
// of one federated run (two drivers, the federation soak's fault plan),
// and of one driver-crash recovery run's log together with the canonical
// encoding of the replay of its retained tail. The federated logs cover
// every claim record kind; the recovery log covers snapshot checkpoints,
// the recovery barrier and adoption records, and Replay.
var goldenWAL = struct {
	federation    []string // per application, in AppRuntimes order
	recovery      string
	recoveryState string
}{
	federation: []string{
		"0998b6ebf1312dd9", "3d5d68814fcce32e", "6c239668d17df6f0", "3b67e7f9bd242ea5",
	},
	recovery:      "6fc59d6bed009acc",
	recoveryState: "3792beea175cbb41",
}

// goldenWALRecoverySeed is the recovery run's seed; its plan's driver
// crash lands while the application is running.
const goldenWALRecoverySeed = 1

func TestGoldenWALBytes(t *testing.T) {
	res := federation.Run(fedSoakRun(1))
	if len(res.AppRuntimes) != len(goldenWAL.federation) {
		t.Fatalf("%d federated applications, golden table has %d",
			len(res.AppRuntimes), len(goldenWAL.federation))
	}
	for i, rt := range res.AppRuntimes {
		if err := rt.WAL().Err(); err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		if got := streamDigest(rt.WAL()); got != goldenWAL.federation[i] {
			t.Errorf("federated app %d: WAL digest %s (%d bytes), golden %s",
				i, got, rt.WAL().Written(), goldenWAL.federation[i])
		}
	}

	res2, rt, _ := RecoveryRun("rupam", goldenWALRecoverySeed, true)
	if res2.DriverCrashes == 0 {
		t.Fatal("recovery run's driver crash did not fire")
	}
	if got := streamDigest(rt.WAL()); got != goldenWAL.recovery {
		t.Errorf("recovery run: WAL digest %s (%d bytes), golden %s", got, rt.WAL().Written(), goldenWAL.recovery)
	}
	// The retained tail replays to the state the full log replayed to.
	st, _, err := wal.Replay(bytes.NewReader(rt.WAL().Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := bytesDigest(st.Encode()); got != goldenWAL.recoveryState {
		t.Errorf("recovery run: replayed state digest %s, golden %s", got, goldenWAL.recoveryState)
	}
}
