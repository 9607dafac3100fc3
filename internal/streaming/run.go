package streaming

import (
	"cmp"
	"fmt"
	"slices"

	"rupam/internal/cluster"
	"rupam/internal/core"
	"rupam/internal/executor"
	"rupam/internal/faults"
	"rupam/internal/simx"
	"rupam/internal/task"
	"rupam/internal/tracing"
)

// Tuning constants of the streaming runtime.
const (
	// grayFreqFrac: a host whose effective per-core speed drops below
	// this fraction of spec is considered gray-degraded.
	grayFreqFrac = 0.7
	// grayBacklogFrac / grayTicks: a gray-degraded operator migrates when
	// its backlog exceeds this fraction of its input capacity for this
	// many consecutive ticks.
	grayBacklogFrac = 0.5
	grayTicks       = 3
	// spikeBacklogFrac / spikeTicks: even on a healthy host, a backlog
	// pinned near capacity this long means the operator is outmatched —
	// a load spike outgrew the node — and it migrates.
	spikeBacklogFrac = 0.9
	spikeTicks       = 12
	// migrationCooldown is the minimum spacing between migrations of one
	// operator, so marginal placements do not thrash.
	migrationCooldown = 15.0
	// charDBInterval is how often observed per-operator demand is fed
	// back into the CharDB.
	charDBInterval = 5.0
	// execHeapBytes sizes the bookkeeping executor each node gets so the
	// fault injector (crash, preempt, flake, mem-pressure) has a target.
	execHeapBytes = int64(1) << 30
)

// Config parameterizes one streaming run. The zero value plus a Seed is
// usable; withDefaults fills the rest.
type Config struct {
	// Seed drives topology generation and is the identity of the run.
	Seed uint64
	// Placer names the placement policy (see PlacerNames). Default "rupam".
	Placer string
	// Topo bounds the generated topology.
	Topo TopoConfig
	// Horizon is how long sources emit, in virtual seconds (default 120).
	Horizon float64
	// Warmup excludes the initial transient from sustained-throughput and
	// latency metrics (default 20).
	Warmup float64
	// BatchInterval is the micro-batch tick, in seconds (default 0.25).
	BatchInterval float64
	// BacklogSeconds sizes each channel to this many seconds of its
	// closed-form steady rate (default 2, floor 100 records).
	BacklogSeconds float64
	// DrainGrace bounds how long after Horizon the topology may take to
	// drain before the run is declared stuck (default 180).
	DrainGrace float64
	// SLOMs is the end-to-end record-latency objective in milliseconds
	// (default 2000); SLOAttain reports the fraction of sink records
	// under it.
	SLOMs float64
	// Faults, if non-nil, is installed on the run's injector.
	Faults *faults.Schedule
	// ForceMigrateAt, if positive, forces one migration of the most
	// backlogged operator at that virtual time — the soak harness uses it
	// to guarantee the migration path is exercised every seed.
	ForceMigrateAt float64
	// CharDB, if non-nil, is the shared characteristics store the rupam
	// placer reads and the runtime feeds; nil gets a fresh private one.
	CharDB *core.CharDB
	// Collector, if non-nil, records placement decisions, operator phase
	// spans and fault windows.
	Collector *tracing.Collector
	// Trace, if non-nil, receives a line per notable runtime event.
	Trace func(string)
}

func (c Config) withDefaults() Config {
	if c.Placer == "" {
		c.Placer = "rupam"
	}
	if c.Horizon <= 0 {
		c.Horizon = 120
	}
	if c.Warmup <= 0 || c.Warmup >= c.Horizon {
		c.Warmup = c.Horizon / 6
	}
	if c.BatchInterval <= 0 {
		c.BatchInterval = 0.25
	}
	if c.BacklogSeconds <= 0 {
		c.BacklogSeconds = 2
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 180
	}
	if c.SLOMs <= 0 {
		c.SLOMs = 2000
	}
	return c
}

// Runtime executes one streaming topology on one cluster. It is built by
// Run; tests poke at intermediate state through small accessors.
type Runtime struct {
	cfg   Config
	eng   *simx.Engine
	clu   *cluster.Cluster
	execs map[string]*executor.Executor
	cache *executor.CacheTracker
	inj   *faults.Injector
	col   *tracing.Collector
	db    *core.CharDB

	topo   *Topology
	placer Placer
	nodes  []NodeInfo

	// Per-run topology index, built once by Run: nothing on the tick
	// path walks the Topology's operator or edge lists.
	order   []int                // topological order
	sources []int                // operators with no in-edges, ascending
	ops     map[int]*Operator    // by ID
	keys    map[int]core.TaskKey // CharDB stream key by operator ID

	opNode   map[int]string
	chans    []*channel // topology edge order
	inChans  map[int][]*channel
	outChans map[int][]*channel

	spikeMult float64

	sourceEmitted map[int]float64
	acc           map[int]*opAccum

	migrating     map[int]*migration
	lastMigration map[int]float64
	overTicks     map[int]int
	records       []MigrationRecord
	forcedDone    bool

	latSamples  []latSample
	sinkWindow  float64 // sink records consumed in (Warmup, Horizon]
	sloHit      float64 // of those, records within the SLO
	sloTotal    float64
	runSpanFrom map[int]float64 // open "run" span start per op

	tickN          int
	sourcesStopped bool
	drained        bool
	quiesceAt      float64
	violations     []string

	// Tick scratch, reused so the steady-state tick allocates nothing.
	tickFn func()     // r.tick, bound once
	items  []nodeItem // processNode's water-fill
	popBuf []cohort   // processOp's consumed cohorts
}

// nodeItem is one operator's share of its node's cycle budget in a tick.
type nodeItem struct {
	id     int
	demand float64 // cycles wanted, capped by parallelism × per-core speed
	grant  float64 // cycles granted by the water-fill
}

// opAccum accumulates one operator's lifetime and CharDB-window stats.
type opAccum struct {
	consumed float64 // records popped from in-channels (== processed)
	emitted  float64 // records pushed across all out-channels
	cycles   float64 // giga-cycles spent
	maxBack  float64 // peak summed in-channel backlog

	winCycles, winConsumed, winInBytes, winOutBytes float64
}

type latSample struct {
	lat, weight float64
}

// Run executes the configured streaming run to quiescence and returns
// its Result. Everything is derived from the seed and the config, so the
// same inputs reproduce a bit-identical Result.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	eng := simx.NewEngine()
	clu := cluster.NewHydra(cluster.New(eng))

	r := &Runtime{
		cfg:           cfg,
		eng:           eng,
		clu:           clu,
		execs:         make(map[string]*executor.Executor),
		cache:         executor.NewCacheTracker(),
		col:           cfg.Collector,
		db:            cfg.CharDB,
		opNode:        make(map[int]string),
		ops:           make(map[int]*Operator),
		keys:          make(map[int]core.TaskKey),
		inChans:       make(map[int][]*channel),
		outChans:      make(map[int][]*channel),
		spikeMult:     1,
		sourceEmitted: make(map[int]float64),
		acc:           make(map[int]*opAccum),
		migrating:     make(map[int]*migration),
		lastMigration: make(map[int]float64),
		overTicks:     make(map[int]int),
		runSpanFrom:   make(map[int]float64),
	}
	if r.db == nil {
		r.db = core.NewCharDB()
	}
	r.col.Bind(eng)
	for _, n := range clu.Nodes {
		r.col.RegisterNode(n.Spec.Name, n.Spec.Cores)
		executor.New(eng, clu, n, r.cache, r.execs, executor.Config{
			HeapBytes: execHeapBytes,
			Seed:      cfg.Seed,
			Tracer:    r.col,
		})
	}

	r.topo = GenTopology(cfg.Seed, cfg.Topo)
	r.order = r.topo.TopoOrder()
	r.sources = r.topo.Sources()
	for _, o := range r.topo.Ops {
		r.ops[o.ID] = o
		r.keys[o.ID] = StreamKey(r.topo.Name, o)
	}
	r.nodes = SnapshotNodes(clu)
	placer, err := NewPlacer(cfg.Placer, r.db, r.col)
	if err != nil {
		panic(err)
	}
	r.placer = placer

	// Initial placement.
	r.opNode = placer.Place(r.topo, r.nodes)
	for _, id := range r.order {
		r.acc[id] = &opAccum{}
		r.runSpanFrom[id] = 0
		if r.opNode[id] == "" {
			panic(fmt.Sprintf("streaming: placer %s left operator %d unplaced", placer.Name(), id))
		}
	}

	// Channels, sized to BacklogSeconds of the closed-form steady rate.
	outRates := r.topo.SteadyOutRates()
	for _, e := range r.topo.Edges {
		capRecords := cfg.BacklogSeconds * outRates[e.From]
		if capRecords < 100 {
			capRecords = 100
		}
		ch := &channel{from: e.From, to: e.To, capacity: capRecords,
			bytesPerRecord: r.ops[e.From].BytesPerRecord}
		r.chans = append(r.chans, ch)
		r.inChans[e.To] = append(r.inChans[e.To], ch)
		r.outChans[e.From] = append(r.outChans[e.From], ch)
	}

	// Fault wiring: the injector targets the bookkeeping executors; the
	// streaming hooks route notices, kills and spikes into the runtime.
	r.inj = faults.NewInjector(eng, clu, r.execs)
	r.inj.Collector = r.col
	r.inj.Trace = cfg.Trace
	r.inj.OnLoadSpike = func(mult float64) {
		r.spikeMult = mult
		if r.cfg.Trace != nil {
			r.trace("load multiplier now ×%.2f", mult)
		}
	}
	r.inj.OnSpotNotice = func(node string, grace float64) {
		r.evacuate(node, "spot-notice")
	}
	r.inj.OnSpotKill = func(node string) {
		// Emergency failovers for anything the grace window didn't move;
		// the per-tick liveness sweep would also catch these a beat later.
		r.failover(node, "spot-kill")
	}
	if cfg.Faults != nil {
		r.inj.Install(cfg.Faults)
	}

	r.tickFn = r.tick
	eng.Schedule(cfg.BatchInterval, r.tickFn)
	eng.Run()

	return r.result()
}

// trace emits a Trace line. Call sites that pass arguments check
// cfg.Trace first, so an untraced run does not box them.
func (r *Runtime) trace(format string, args ...interface{}) {
	if r.cfg.Trace != nil {
		r.cfg.Trace(fmt.Sprintf("[%8.2fs] %s", r.eng.Now(), fmt.Sprintf(format, args...)))
	}
}

// nodeAlive reports whether the node can currently host operators.
func (r *Runtime) nodeAlive(name string) bool {
	ex, ok := r.execs[name]
	return ok && !ex.FailStopped()
}

// liveExclusions returns the dead-node set for placer Pick calls.
func (r *Runtime) liveExclusions() map[string]bool {
	ex := make(map[string]bool)
	for _, n := range r.clu.Nodes {
		if !r.nodeAlive(n.Spec.Name) {
			ex[n.Spec.Name] = true
		}
	}
	return ex
}

// tick is the micro-batch loop body, every BatchInterval of virtual time.
func (r *Runtime) tick() {
	now := r.eng.Now()
	dt := r.cfg.BatchInterval

	// (1) Fold wire progress into arrivals.
	r.clu.Net.Sync()
	for _, ch := range r.chans {
		ch.settleWire()
	}

	// (2) Liveness: operators on dead hosts fail over.
	for _, id := range r.order {
		if !r.nodeAlive(r.opNode[id]) {
			r.emergency(id, "host-dead")
		}
	}

	// (3) Migration progress: draining operators whose backlog is gone
	// hand their state off.
	r.advanceMigrations()

	// (4) Process: water-fill each node's cycle budget over its resident
	// operators, bounded per operator by parallelism × per-core speed,
	// available input, and downstream credit.
	for _, node := range r.clu.Nodes {
		r.processNode(node, now, dt)
	}

	// (5) Sources emit, throttled by downstream credit — the terminal
	// stage of backpressure.
	if !r.sourcesStopped {
		for _, id := range r.sources {
			r.emitSource(id, now, dt)
		}
	}

	// (6) Reconcile wires with queue state and current placement.
	r.manageWires()

	// (7) Feed observed demand to the CharDB on its cadence.
	r.tickN++
	ticksPerFeed := int(charDBInterval/dt + 0.5)
	if ticksPerFeed < 1 {
		ticksPerFeed = 1
	}
	if r.tickN%ticksPerFeed == 0 {
		r.feedCharDB(now)
	}

	// (8) Migration triggers.
	r.triggerMigrations(now)

	// (9) Book backlog stats.
	for _, id := range r.order {
		if back, a := r.backlog(id), r.acc[id]; back > a.maxBack {
			a.maxBack = back
		}
	}

	// (10) Horizon and quiescence.
	if now >= r.cfg.Horizon && !r.sourcesStopped {
		r.sourcesStopped = true
		r.trace("horizon: sources stopped")
	}
	if r.sourcesStopped && r.quiesced() {
		r.finish(now, true)
		return
	}
	if r.sourcesStopped && now >= r.cfg.Horizon+r.cfg.DrainGrace {
		r.violations = append(r.violations,
			fmt.Sprintf("backlog failed to drain within %.0fs of the horizon", r.cfg.DrainGrace))
		r.finish(now, false)
		return
	}
	r.eng.Schedule(dt, r.tickFn)
}

// quiesced reports whether every channel is empty and no migration is in
// flight.
func (r *Runtime) quiesced() bool {
	if len(r.migrating) > 0 {
		return false
	}
	for _, ch := range r.chans {
		if ch.q.count > 0 {
			return false
		}
	}
	return true
}

// finish closes wires and spans and stamps the quiesce time.
func (r *Runtime) finish(now float64, drained bool) {
	r.drained = drained
	r.quiesceAt = now
	for _, ch := range r.chans {
		if ch.wire != nil && !ch.wire.Done() {
			r.clu.Net.Cancel(ch.wire)
		}
		ch.wire = nil
	}
	for _, id := range r.order {
		if from, ok := r.runSpanFrom[id]; ok {
			r.streamSpanAt(r.opNode[id], r.ops[id].Name, "run", "", from, now)
		}
	}
	r.feedCharDB(now)
	r.db.Flush()
}

// processNode water-fills the node's cycle budget for this tick across
// its resident operators and executes the grants.
func (r *Runtime) processNode(node *cluster.Node, now, dt float64) {
	name := node.Spec.Name
	if !r.nodeAlive(name) {
		return
	}
	items := r.items[:0]
	for _, id := range r.order {
		if r.opNode[id] != name || len(r.inChans[id]) == 0 {
			continue // sources emit in their own phase
		}
		o := r.ops[id]
		avail := 0.0
		for _, ch := range r.inChans[id] {
			avail += ch.arrived
		}
		if avail <= 0 {
			continue
		}
		space := avail
		for _, ch := range r.outChans[id] {
			if s := ch.free() / o.Selectivity; s < space {
				space = s
			}
		}
		want := avail
		if space < want {
			want = space
		}
		if want <= 0 {
			continue
		}
		perCap := float64(o.Parallelism) * node.CPU.PerClaimCap() * dt
		demand := want * o.CyclesPerRecord
		if demand > perCap {
			demand = perCap
		}
		items = append(items, nodeItem{id: id, demand: demand})
	}
	r.items = items
	if len(items) == 0 {
		return
	}
	// Exact water-filling of capped demands: ascending by demand, each
	// item takes min(demand, equal share of what remains).
	slices.SortFunc(items, func(a, b nodeItem) int {
		if c := cmp.Compare(a.demand, b.demand); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	budget := node.CPU.Capacity() * dt
	for i := range items {
		share := budget / float64(len(items)-i)
		g := items[i].demand
		if g > share {
			g = share
		}
		items[i].grant = g
		budget -= g
	}
	// Execute grants in deterministic operator order.
	slices.SortFunc(items, func(a, b nodeItem) int { return cmp.Compare(a.id, b.id) })
	for _, it := range items {
		r.processOp(it.id, it.grant, now)
	}
}

// processOp consumes up to grant giga-cycles worth of records from the
// operator's in-channels and emits the results downstream (or samples
// latency, for sinks).
func (r *Runtime) processOp(id int, grant float64, now float64) {
	o := r.ops[id]
	a := r.acc[id]
	n := grant / o.CyclesPerRecord
	avail := 0.0
	for _, ch := range r.inChans[id] {
		avail += ch.arrived
	}
	if n > avail {
		n = avail
	}
	if n <= 0 {
		return
	}
	isSink := len(r.outChans[id]) == 0
	// Pop proportionally across in-channels so a slow upstream cannot be
	// starved by a fast one.
	for _, ch := range r.inChans[id] {
		share := n * (ch.arrived / avail)
		r.popBuf = ch.consume(share, r.popBuf)
		for _, c := range r.popBuf {
			a.consumed += c.count
			a.cycles += c.count * o.CyclesPerRecord
			a.winConsumed += c.count
			a.winCycles += c.count * o.CyclesPerRecord
			a.winInBytes += c.count * ch.bytesPerRecord
			if isSink {
				lat := now - c.born
				r.latSamples = append(r.latSamples, latSample{lat: lat, weight: c.count})
				if now > r.cfg.Warmup && now <= r.cfg.Horizon {
					r.sinkWindow += c.count
				}
				r.sloTotal += c.count
				if lat*1000 <= r.cfg.SLOMs {
					r.sloHit += c.count
				}
			} else {
				outN := c.count * o.Selectivity
				for _, out := range r.outChans[id] {
					out.push(outN, c.born)
					a.emitted += outN
					a.winOutBytes += outN * o.BytesPerRecord
				}
			}
		}
	}
}

// emitSource emits one tick of source records, bounded by the credit of
// every out-channel — when downstream is full, the source throttles.
func (r *Runtime) emitSource(id int, now, dt float64) {
	o := r.ops[id]
	if !r.nodeAlive(r.opNode[id]) {
		return // a dead host ingests nothing until the source fails over
	}
	n := o.RateHz * r.spikeMult * dt
	for _, ch := range r.outChans[id] {
		if f := ch.free(); f < n {
			n = f
		}
	}
	if n <= 0 {
		return
	}
	a := r.acc[id]
	for _, ch := range r.outChans[id] {
		ch.push(n, now)
		a.emitted += n
		a.winOutBytes += n * o.BytesPerRecord
	}
	r.sourceEmitted[id] += n
}

// manageWires opens, closes, and re-homes the long-lived channel flows to
// match queue state and the current placement. A colocated channel needs
// no wire: arrival is a memory copy.
func (r *Runtime) manageWires() {
	for _, ch := range r.chans {
		src, dst := r.opNode[ch.from], r.opNode[ch.to]
		if src == dst {
			if ch.wire != nil && !ch.wire.Done() {
				r.clu.Net.Cancel(ch.wire)
			}
			ch.wire = nil
			ch.arrived = ch.q.count
			ch.shipCredit = 0
			continue
		}
		stale := ch.wire != nil && !ch.wire.Done() &&
			(ch.wire.Src() != src || ch.wire.Dst() != dst)
		if stale {
			r.clu.Net.Cancel(ch.wire)
			ch.wire = nil
		}
		if ch.wire != nil && ch.wire.Done() {
			ch.wire = nil
		}
		switch {
		case ch.unarrived() > recEps && ch.wire == nil:
			if r.nodeAlive(src) && r.nodeAlive(dst) {
				ch.wire = r.clu.Net.Start(src, dst, wireBudget, nil)
				ch.lastRemaining = wireBudget
			}
		case ch.unarrived() <= recEps && ch.wire != nil:
			r.clu.Net.Cancel(ch.wire)
			ch.wire = nil
		}
	}
}

// feedCharDB writes each operator's observed demand vector for the
// closing window into the CharDB under its stream key: ComputeTime
// carries Gcycles/s, ShuffleRead/Write carry bytes/s, PeakMemory the
// state size. This is the evidence path the rupam placer reads.
func (r *Runtime) feedCharDB(now float64) {
	for _, id := range r.order {
		a := r.acc[id]
		if a.winConsumed <= 0 && a.winOutBytes <= 0 {
			continue
		}
		o := r.ops[id]
		node := r.opNode[id]
		cpu := a.winCycles / charDBInterval
		inBps := a.winInBytes / charDBInterval
		outBps := a.winOutBytes / charDBInterval
		m := &task.Metrics{
			Executor:         node,
			Start:            now - charDBInterval,
			End:              now,
			ComputeTime:      cpu,
			ShuffleReadTime:  inBps,
			ShuffleWriteTime: outBps,
			PeakMemory:       o.StateBytes,
		}
		bottleneck := core.CPU
		if n := r.clu.Node(node); n != nil {
			cpuFrac := cpu / n.Spec.CPUCapacity()
			netFrac := (inBps + outBps) / n.Spec.NetBandwidth
			if netFrac > cpuFrac {
				bottleneck = core.Net
			}
		}
		r.db.Update(r.keys[id], m, bottleneck, true)
		a.winCycles, a.winConsumed, a.winInBytes, a.winOutBytes = 0, 0, 0, 0
	}
	r.db.Flush()
}

// triggerMigrations evaluates the per-tick migration policy: the forced
// migration (soak determinism), gray degradation, and persistent
// overload after a load spike.
func (r *Runtime) triggerMigrations(now float64) {
	if r.cfg.ForceMigrateAt > 0 && now >= r.cfg.ForceMigrateAt && !r.forcedDone {
		// Most backlogged operator, ties to the lowest ID.
		bestID, bestBack := -1, -1.0
		for _, id := range r.order {
			if r.migrating[id] != nil {
				continue
			}
			if back := r.backlog(id); back > bestBack {
				bestID, bestBack = id, back
			}
		}
		if bestID >= 0 && r.startMigration(bestID, "", "forced", false) {
			r.forcedDone = true
		}
	}
	for _, id := range r.order {
		if r.migrating[id] != nil || len(r.inChans[id]) == 0 {
			r.overTicks[id] = 0
			continue
		}
		if now-r.lastMigration[id] < migrationCooldown {
			continue
		}
		node := r.clu.Node(r.opNode[id])
		if node == nil {
			continue
		}
		capSum, back := 0.0, 0.0
		for _, ch := range r.inChans[id] {
			capSum += ch.capacity
			back += ch.q.count
		}
		gray := node.CPU.PerClaimCap() < grayFreqFrac*node.Spec.FreqGHz
		switch {
		case gray && back > grayBacklogFrac*capSum:
			r.overTicks[id]++
			if r.overTicks[id] >= grayTicks {
				if r.startMigration(id, "", "gray-degradation", false) {
					r.overTicks[id] = 0
				}
			}
		case back > spikeBacklogFrac*capSum:
			r.overTicks[id]++
			if r.overTicks[id] >= spikeTicks {
				if r.startMigration(id, "", "overload", false) {
					r.overTicks[id] = 0
				}
			}
		default:
			r.overTicks[id] = 0
		}
	}
}

// evacuate gracefully migrates every operator off a doomed node (spot
// notice: the host is still alive for the grace window).
func (r *Runtime) evacuate(node, reason string) {
	for _, id := range r.order {
		if r.opNode[id] == node && r.migrating[id] == nil {
			r.startMigration(id, "", reason, false)
		}
	}
}

// failover emergency-migrates every operator still homed on a dead node.
func (r *Runtime) failover(node, reason string) {
	for _, id := range r.order {
		if r.opNode[id] == node {
			r.emergency(id, reason)
		}
	}
}
