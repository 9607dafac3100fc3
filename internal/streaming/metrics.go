package streaming

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"

	"rupam/internal/cluster"
	"rupam/internal/executor"
)

// OpStat is one operator's lifetime accounting.
type OpStat struct {
	ID         int     `json:"id"`
	Name       string  `json:"name"`
	Node       string  `json:"node"` // final host
	Consumed   float64 `json:"consumed"`
	Emitted    float64 `json:"emitted"`
	Cycles     float64 `json:"gcycles"`
	MaxBacklog float64 `json:"max_backlog"`
}

// ChanStat is one channel's lifetime accounting.
type ChanStat struct {
	From      int     `json:"from"`
	To        int     `json:"to"`
	Capacity  float64 `json:"capacity"`
	Emitted   float64 `json:"emitted"`
	Delivered float64 `json:"delivered"`
	Queued    float64 `json:"queued"` // left over at quiesce
	MaxQueue  float64 `json:"max_queue"`
}

// Result is the outcome of one streaming run. Identical (seed, config)
// inputs produce bit-identical Results — Fingerprint pins that down.
type Result struct {
	Seed   uint64 `json:"seed"`
	Placer string `json:"placer"`

	Topology  string `json:"topology"`
	OpCount   int    `json:"op_count"`
	EdgeCount int    `json:"edge_count"`

	Horizon        float64 `json:"horizon"`
	Warmup         float64 `json:"warmup"`
	SLOMs          float64 `json:"slo_ms"`
	ForceMigrateAt float64 `json:"force_migrate_at,omitempty"`

	Drained   bool    `json:"drained"`
	QuiesceAt float64 `json:"quiesce_at"`

	// ThroughputHz is sink records/s sustained over (Warmup, Horizon] —
	// the headline metric the placement gate compares.
	ThroughputHz float64 `json:"throughput_hz"`
	// OfferedHz is the closed-form fault-free sink input rate, the
	// ceiling ThroughputHz approaches when nothing backpressures.
	OfferedHz float64 `json:"offered_hz"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	SLOAttain float64 `json:"slo_attain"`

	SourceEmitted map[int]float64   `json:"source_emitted"`
	Ops           []OpStat          `json:"ops"`
	Chans         []ChanStat        `json:"chans"`
	Migrations    []MigrationRecord `json:"migrations"`
	LoadSpikes    int               `json:"load_spikes"`

	Violations []string `json:"violations,omitempty"`

	// Substrate handles for the conservation battery; not serialized.
	Execs map[string]*executor.Executor `json:"-"`
	Clu   *cluster.Cluster              `json:"-"`
	Cache *executor.CacheTracker        `json:"-"`
	Topo  *Topology                     `json:"-"`
}

// result freezes the runtime into a Result.
func (r *Runtime) result() *Result {
	res := &Result{
		Seed:           r.cfg.Seed,
		Placer:         r.placer.Name(),
		Topology:       r.topo.Name,
		OpCount:        len(r.topo.Ops),
		EdgeCount:      len(r.topo.Edges),
		Horizon:        r.cfg.Horizon,
		Warmup:         r.cfg.Warmup,
		SLOMs:          r.cfg.SLOMs,
		ForceMigrateAt: r.cfg.ForceMigrateAt,
		Drained:        r.drained,
		QuiesceAt:      r.quiesceAt,
		Migrations:     r.records,
		LoadSpikes:     r.inj.LoadSpikes,
		Violations:     r.violations,
		Execs:          r.execs,
		Clu:            r.clu,
		Cache:          r.cache,
		Topo:           r.topo,
	}
	if window := r.cfg.Horizon - r.cfg.Warmup; window > 0 {
		res.ThroughputHz = r.sinkWindow / window
	}
	rates := r.topo.SteadyRates()
	for _, id := range r.topo.Sinks() {
		res.OfferedHz += rates[id]
	}
	res.P50Ms, res.P99Ms = weightedPercentiles(r.lats)
	if r.sloTotal > 0 {
		res.SLOAttain = r.sloHit / r.sloTotal
	}
	res.SourceEmitted = make(map[int]float64, len(r.topo.Sources()))
	for _, id := range r.topo.Sources() {
		if n := r.ops[id].sourceEmitted; n > 0 {
			res.SourceEmitted[id] = n
		}
	}
	for _, id := range r.topo.TopoOrder() {
		st := &r.ops[id]
		res.Ops = append(res.Ops, OpStat{
			ID: id, Name: st.op.Name, Node: r.placed[id],
			Consumed: st.consumed, Emitted: st.emitted, Cycles: st.cycles,
			MaxBacklog: st.maxBack,
		})
	}
	for _, ch := range r.chans {
		res.Chans = append(res.Chans, ChanStat{
			From: ch.from, To: ch.to, Capacity: ch.capacity,
			Emitted: ch.emitted, Delivered: ch.delivered,
			Queued: ch.q.count, MaxQueue: ch.maxQueue,
		})
	}
	return res
}

// addLatency folds weight records consumed at latency lat into s, which
// holds one entry per distinct latency in ascending order.
func addLatency(s []latSample, lat, weight float64) []latSample {
	i, found := slices.BinarySearchFunc(s, lat, func(x latSample, lat float64) int {
		return cmp.Compare(x.lat, lat)
	})
	if found {
		s[i].weight += weight
		return s
	}
	return slices.Insert(s, i, latSample{lat: lat, weight: weight})
}

// weightedPercentiles returns the p50 and p99, in milliseconds, of the
// latency weights addLatency folded into s.
func weightedPercentiles(s []latSample) (p50, p99 float64) {
	if len(s) == 0 {
		return 0, 0
	}
	total := 0.0
	for _, x := range s {
		total += x.weight
	}
	at := func(p float64) float64 {
		target := p * total
		cum := 0.0
		for _, x := range s {
			cum += x.weight
			if cum >= target {
				return x.lat * 1000
			}
		}
		return s[len(s)-1].lat * 1000
	}
	return at(0.50), at(0.99)
}

// relErr is the relative-error tolerance of the conservation checks:
// record counts are float64 sums over hundreds of thousands of cohort
// operations, so exact equality is not meaningful.
const relErr = 1e-6

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > scale {
		scale = b
	}
	if scale < 1 {
		scale = 1
	}
	return d <= relErr*scale
}

// CheckInvariants is the streaming invariant battery over a finished run:
//
//   - channel conservation: emitted == delivered + queued, per channel;
//   - operator flow: records emitted into each out-channel equal records
//     consumed × selectivity — no record manufactured or dropped by a
//     migration;
//   - exactly-once end-to-end: on a drained run, every operator's consumed
//     count equals the closed-form propagation of what the sources
//     actually emitted — so across every migration (graceful or
//     emergency), nothing was lost and nothing was double-counted;
//   - bounded backlog: no channel ever exceeded its capacity;
//   - the run drained, and the forced migration (when configured) happened.
//
// Substrate conservation (heaps, GPU tokens, reservations) is the chaos
// package's CheckSubstrateConservation over Execs/Clu/Cache.
func CheckInvariants(res *Result) []string {
	var v []string
	v = append(v, res.Violations...)

	for _, c := range res.Chans {
		if !closeEnough(c.Emitted, c.Delivered+c.Queued) {
			v = append(v, fmt.Sprintf("chan %d->%d: emitted %.3f != delivered %.3f + queued %.3f",
				c.From, c.To, c.Emitted, c.Delivered, c.Queued))
		}
		if res.Drained && c.Queued > recEps {
			v = append(v, fmt.Sprintf("chan %d->%d: %.3f records stranded after drain",
				c.From, c.To, c.Queued))
		}
		if c.MaxQueue > c.Capacity*(1+relErr)+recEps {
			v = append(v, fmt.Sprintf("chan %d->%d: queue peaked at %.3f over capacity %.3f",
				c.From, c.To, c.MaxQueue, c.Capacity))
		}
	}

	if res.Topo != nil {
		consumed := make([]float64, len(res.Topo.Ops))
		for _, o := range res.Ops {
			consumed[o.ID] = o.Consumed
		}
		for _, c := range res.Chans {
			o := res.Topo.Op(c.From)
			var want float64
			if len(res.Topo.In(c.From)) == 0 {
				want = res.SourceEmitted[c.From]
			} else {
				want = consumed[c.From] * o.Selectivity
			}
			if !closeEnough(c.Emitted, want) {
				v = append(v, fmt.Sprintf("chan %d->%d: emitted %.3f but upstream flow implies %.3f",
					c.From, c.To, c.Emitted, want))
			}
		}
		if res.Drained {
			expect := res.Topo.PropagateEmitted(res.SourceEmitted)
			for _, o := range res.Ops {
				if len(res.Topo.In(o.ID)) == 0 {
					continue
				}
				if !closeEnough(o.Consumed, expect[o.ID]) {
					v = append(v, fmt.Sprintf(
						"op %d (%s): consumed %.3f records but sources imply %.3f (lost or double-counted)",
						o.ID, o.Name, o.Consumed, expect[o.ID]))
				}
			}
		}
	}

	if !res.Drained {
		v = append(v, "run did not drain")
	}
	if res.ForceMigrateAt > 0 && len(res.Migrations) == 0 {
		v = append(v, "forced migration configured but no migration happened")
	}
	return v
}

// Fingerprint hashes the run's observable outcome — per-operator and
// per-channel accounting, migrations, and the headline metrics — so two
// runs of the same seed and config can be compared bit-for-bit.
func (res *Result) Fingerprint() uint64 {
	h := fnv.New64a()
	w := func(format string, args ...interface{}) {
		fmt.Fprintf(h, format, args...)
	}
	w("seed=%d placer=%s topo=%s drained=%v quiesce=%.9g\n",
		res.Seed, res.Placer, res.Topology, res.Drained, res.QuiesceAt)
	w("thr=%.9g p50=%.9g p99=%.9g slo=%.9g\n",
		res.ThroughputHz, res.P50Ms, res.P99Ms, res.SLOAttain)
	srcIDs := make([]int, 0, len(res.SourceEmitted))
	for id := range res.SourceEmitted {
		srcIDs = append(srcIDs, id)
	}
	sort.Ints(srcIDs)
	for _, id := range srcIDs {
		w("src %d emitted %.9g\n", id, res.SourceEmitted[id])
	}
	for _, o := range res.Ops {
		w("op %d %s node=%s consumed=%.9g emitted=%.9g cycles=%.9g back=%.9g\n",
			o.ID, o.Name, o.Node, o.Consumed, o.Emitted, o.Cycles, o.MaxBacklog)
	}
	for _, c := range res.Chans {
		w("chan %d->%d emitted=%.9g delivered=%.9g queued=%.9g max=%.9g\n",
			c.From, c.To, c.Emitted, c.Delivered, c.Queued, c.MaxQueue)
	}
	for _, m := range res.Migrations {
		w("mig op=%d %s->%s reason=%s start=%.9g end=%.9g emergency=%v\n",
			m.Op, m.From, m.To, m.Reason, m.Start, m.End, m.Emergency)
	}
	for _, s := range res.Violations {
		w("violation %s\n", s)
	}
	return h.Sum64()
}
