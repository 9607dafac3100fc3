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
	// batchInterval is the micro-batch tick, in seconds.
	batchInterval float64 = 0.25
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
	// backlogSeconds sizes each channel to this many seconds of its
	// closed-form steady rate (floor 100 records).
	backlogSeconds float64 = 2
	// drainGrace bounds how long after the horizon the topology may take
	// to drain before the run is declared stuck.
	drainGrace float64 = 180
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
	// Collector, if non-nil, records placement decisions, operator phase
	// spans and fault windows.
	Collector *tracing.Collector
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
	// nodeEx holds the executors by cluster node index; nodeIx maps a
	// node name (a placer's answer, a fault hook's argument) to that
	// index. The tick itself compares indices, never names.
	nodeEx []*executor.Executor
	nodeIx map[string]int
	cache  *executor.CacheTracker
	inj    *faults.Injector
	col    *tracing.Collector
	db     *core.CharDB

	topo   *Topology
	placer Placer
	nodes  []NodeInfo

	// Per-operator state lives in slices by operator ID; the graph
	// itself is read from the topology's index.
	ops    []opState  // by operator ID
	placed []string   // host node by operator ID: the placers' view
	host   []int      // placed[id]'s cluster index; both written by setHost
	chans  []*channel // topology edge order

	// resident lists each node's non-source operators in topological
	// order, by cluster index. bucketResidents rebuilds it every tick.
	resident [][]int

	spikeMult float64

	records    []MigrationRecord
	forcedDone bool

	lats       []latSample // one per distinct sink latency, ascending
	sinkWindow float64     // sink records consumed in (Warmup, Horizon]
	sloHit     float64     // of those, records within the SLO
	sloTotal   float64

	tickN          int
	sourcesStopped bool
	drained        bool
	quiesceAt      float64
	violations     []string

	// Tick scratch, reused so the tick allocates nothing but sink
	// latencies not seen before.
	tickFn func()     // r.tick, bound once
	items  []nodeItem // processNode's water-fill
	popBuf []cohort   // processOp's consumed cohorts
}

// opState is everything the runtime tracks about one operator.
type opState struct {
	op      *Operator
	key     core.TaskKey // CharDB stream key
	in, out []*channel
	opAccum

	sourceEmitted float64    // records a source emitted; 0 until it first does
	mig           *migration // in-flight move, or nil
	lastMigration float64
	overTicks     int
	running       bool    // a "run" span is open...
	runFrom       float64 // ...since this time
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

// latSample is the record weight the sink consumed at one latency.
type latSample struct {
	lat, weight float64
}

// Run executes the configured streaming run to quiescence and returns
// its Result. Everything is derived from the seed and the config, so the
// same inputs reproduce a bit-identical Result.
func Run(cfg Config) *Result {
	return newRuntime(cfg).run()
}

// run drives the runtime's ticks to quiescence and freezes the result.
func (r *Runtime) run() *Result {
	r.eng.Schedule(batchInterval, r.tickFn)
	r.eng.Run()
	return r.result()
}

// newRuntime builds the cluster, executors, placement, channels and
// fault wiring of one run, ready for its first tick.
func newRuntime(cfg Config) *Runtime {
	cfg = cfg.withDefaults()
	eng := simx.NewEngine()
	clu := cluster.NewHydra(cluster.New(eng))

	r := &Runtime{
		cfg:       cfg,
		eng:       eng,
		clu:       clu,
		execs:     make(map[string]*executor.Executor),
		nodeEx:    make([]*executor.Executor, len(clu.Nodes)),
		nodeIx:    make(map[string]int, len(clu.Nodes)),
		resident:  make([][]int, len(clu.Nodes)),
		cache:     executor.NewCacheTracker(),
		col:       cfg.Collector,
		db:        core.NewCharDB(),
		spikeMult: 1,
	}
	r.col.Bind(eng)
	for i, n := range clu.Nodes {
		r.col.RegisterNode(n.Spec.Name, n.Spec.Cores)
		r.nodeEx[i] = executor.New(eng, clu, n, r.cache, r.execs, executor.Config{
			HeapBytes: execHeapBytes,
			Seed:      cfg.Seed,
			Tracer:    r.col,
		})
		r.nodeIx[n.Spec.Name] = i
	}

	r.topo = GenTopology(cfg.Seed, cfg.Topo)
	r.nodes = SnapshotNodes(clu)
	placer, err := NewPlacer(cfg.Placer, r.db, r.col)
	if err != nil {
		panic(err)
	}
	r.placer = placer

	// Initial placement.
	r.placed = placer.Place(r.topo, r.nodes)
	r.host = make([]int, len(r.placed))
	r.ops = make([]opState, len(r.topo.Ops))
	for id, o := range r.topo.Ops {
		i, ok := r.nodeIx[r.placed[id]]
		if !ok {
			panic(fmt.Sprintf("streaming: placer %s left operator %d unplaced", placer.Name(), id))
		}
		r.setHost(id, i)
		r.ops[id] = opState{op: o, key: StreamKey(r.topo.Name, o), running: true}
	}

	// Channels, sized to backlogSeconds of the closed-form steady rate.
	outRates := r.topo.SteadyOutRates()
	for _, e := range r.topo.Edges {
		capRecords := backlogSeconds * outRates[e.From]
		if capRecords < 100 {
			capRecords = 100
		}
		from, to := &r.ops[e.From], &r.ops[e.To]
		ch := &channel{from: e.From, to: e.To, capacity: capRecords,
			bytesPerRecord: from.op.BytesPerRecord}
		r.chans = append(r.chans, ch)
		to.in = append(to.in, ch)
		from.out = append(from.out, ch)
	}

	// Fault wiring: the injector targets the bookkeeping executors; the
	// streaming hooks route notices, kills and spikes into the runtime.
	r.inj = faults.NewInjector(eng, clu, r.execs)
	r.inj.Collector = r.col
	r.inj.OnLoadSpike = func(mult float64) { r.spikeMult = mult }
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
	return r
}

// setHost homes the operator on the node with the given cluster index.
// It is the only writer of placed and host, so the two never disagree.
func (r *Runtime) setHost(id, node int) {
	r.host[id] = node
	r.placed[id] = r.nodeName(node)
}

// nodeName returns the name of the node with the given cluster index.
func (r *Runtime) nodeName(node int) string { return r.clu.Nodes[node].Spec.Name }

// nodeAlive reports whether the node with the given cluster index can
// currently host operators.
func (r *Runtime) nodeAlive(node int) bool { return !r.nodeEx[node].FailStopped() }

// liveExclusions returns the dead-node set for placer Pick calls.
func (r *Runtime) liveExclusions() map[string]bool {
	ex := make(map[string]bool)
	for i, n := range r.clu.Nodes {
		if !r.nodeAlive(i) {
			ex[n.Spec.Name] = true
		}
	}
	return ex
}

// tick is the micro-batch loop body, every batchInterval of virtual time.
func (r *Runtime) tick() {
	now := r.eng.Now()
	dt := batchInterval

	// (1) Fold wire progress into arrivals.
	r.clu.Net.Sync()
	for _, ch := range r.chans {
		ch.settleWire()
	}

	// (2) Liveness: operators on dead hosts fail over.
	for _, id := range r.topo.TopoOrder() {
		if !r.nodeAlive(r.host[id]) {
			r.emergency(id, "host-dead")
		}
	}

	// (3) Migration progress: draining operators whose backlog is gone
	// hand their state off.
	r.advanceMigrations()

	// (4) Process: water-fill each node's cycle budget over its resident
	// operators, bounded per operator by parallelism × per-core speed,
	// available input, and downstream credit.
	r.bucketResidents()
	for i := range r.clu.Nodes {
		r.processNode(i, now, dt)
	}

	// (5) Sources emit, throttled by downstream credit — the terminal
	// stage of backpressure.
	if !r.sourcesStopped {
		for _, id := range r.topo.Sources() {
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
	for _, id := range r.topo.TopoOrder() {
		st := &r.ops[id]
		if back := st.backlog(); back > st.maxBack {
			st.maxBack = back
		}
	}

	// (10) Horizon and quiescence.
	if now >= r.cfg.Horizon && !r.sourcesStopped {
		r.sourcesStopped = true
	}
	if r.sourcesStopped && r.quiesced() {
		r.finish(now, true)
		return
	}
	if r.sourcesStopped && now >= r.cfg.Horizon+drainGrace {
		r.violations = append(r.violations,
			fmt.Sprintf("backlog failed to drain within %.0fs of the horizon", drainGrace))
		r.finish(now, false)
		return
	}
	r.eng.Schedule(dt, r.tickFn)
}

// quiesced reports whether every channel is empty and no migration is in
// flight.
func (r *Runtime) quiesced() bool {
	for id := range r.ops {
		if r.ops[id].mig != nil {
			return false
		}
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
	for _, id := range r.topo.TopoOrder() {
		if st := &r.ops[id]; st.running {
			r.streamSpanAt(r.placed[id], st.op.Name, "run", "", st.runFrom, now)
		}
	}
	r.feedCharDB(now)
}

// bucketResidents rebuilds each node's resident list. Placement changes
// only in finishMigration, which runs as an event of its own, so the
// lists built here hold for the rest of the tick.
func (r *Runtime) bucketResidents() {
	for i := range r.resident {
		r.resident[i] = r.resident[i][:0]
	}
	for _, id := range r.topo.TopoOrder() {
		if len(r.ops[id].in) > 0 { // sources emit in their own phase
			h := r.host[id]
			r.resident[h] = append(r.resident[h], id)
		}
	}
}

// processNode water-fills the cycle budget of the node with cluster
// index i for this tick across its resident operators and executes the
// grants.
func (r *Runtime) processNode(i int, now, dt float64) {
	if !r.nodeAlive(i) {
		return
	}
	node := r.clu.Nodes[i]
	items := r.items[:0]
	for _, id := range r.resident[i] {
		st := &r.ops[id]
		o := st.op
		avail := 0.0
		for _, ch := range st.in {
			avail += ch.arrived
		}
		if avail <= 0 {
			continue
		}
		space := avail
		for _, ch := range st.out {
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
	st := &r.ops[id]
	o := st.op
	n := grant / o.CyclesPerRecord
	avail := 0.0
	for _, ch := range st.in {
		avail += ch.arrived
	}
	if n > avail {
		n = avail
	}
	if n <= 0 {
		return
	}
	isSink := len(st.out) == 0
	// Pop proportionally across in-channels so a slow upstream cannot be
	// starved by a fast one.
	for _, ch := range st.in {
		share := n * (ch.arrived / avail)
		r.popBuf = ch.consume(share, r.popBuf)
		for _, c := range r.popBuf {
			st.consumed += c.count
			st.cycles += c.count * o.CyclesPerRecord
			st.winConsumed += c.count
			st.winCycles += c.count * o.CyclesPerRecord
			st.winInBytes += c.count * ch.bytesPerRecord
			if isSink {
				lat := now - c.born
				r.lats = addLatency(r.lats, lat, c.count)
				if now > r.cfg.Warmup && now <= r.cfg.Horizon {
					r.sinkWindow += c.count
				}
				r.sloTotal += c.count
				if lat*1000 <= r.cfg.SLOMs {
					r.sloHit += c.count
				}
			} else {
				outN := c.count * o.Selectivity
				for _, out := range st.out {
					out.push(outN, c.born)
					st.emitted += outN
					st.winOutBytes += outN * o.BytesPerRecord
				}
			}
		}
	}
}

// emitSource emits one tick of source records, bounded by the credit of
// every out-channel — when downstream is full, the source throttles.
func (r *Runtime) emitSource(id int, now, dt float64) {
	st := &r.ops[id]
	o := st.op
	if !r.nodeAlive(r.host[id]) {
		return // a dead host ingests nothing until the source fails over
	}
	n := o.RateHz * r.spikeMult * dt
	for _, ch := range st.out {
		if f := ch.free(); f < n {
			n = f
		}
	}
	if n <= 0 {
		return
	}
	for _, ch := range st.out {
		ch.push(n, now)
		st.emitted += n
		st.winOutBytes += n * o.BytesPerRecord
	}
	st.sourceEmitted += n
}

// manageWires opens, closes, and re-homes the long-lived channel flows to
// match queue state and the current placement. A colocated channel needs
// no wire: arrival is a memory copy.
//
// Every start and cancel runs under one network hold, so the tick pays
// for one water-fill, not one per wire. The rates are the same bits:
// nothing here reads a rate or schedules an event, and wires carry
// wireBudget bytes and no callback, so the re-armed completion timer
// keeps its order among every live event.
func (r *Runtime) manageWires() {
	net := r.clu.Net
	net.Hold()
	defer net.Release()
	for _, ch := range r.chans {
		src, dst := r.host[ch.from], r.host[ch.to]
		if src == dst {
			if ch.wire != nil && !ch.wire.Done() {
				net.Cancel(ch.wire)
			}
			ch.wire = nil
			ch.arrived = ch.q.count
			ch.shipCredit = 0
			continue
		}
		stale := ch.wire != nil && !ch.wire.Done() &&
			(ch.wireSrc != src || ch.wireDst != dst)
		if stale {
			net.Cancel(ch.wire)
			ch.wire = nil
		}
		if ch.wire != nil && ch.wire.Done() {
			ch.wire = nil
		}
		switch {
		case ch.unarrived() > recEps && ch.wire == nil:
			if r.nodeAlive(src) && r.nodeAlive(dst) {
				ch.wire = net.Start(r.placed[ch.from], r.placed[ch.to], wireBudget, nil)
				ch.wireSrc, ch.wireDst = src, dst
				ch.lastRemaining = wireBudget
			}
		case ch.unarrived() <= recEps && ch.wire != nil:
			net.Cancel(ch.wire)
			ch.wire = nil
		}
	}
}

// feedCharDB writes each operator's observed demand vector for the
// closing window into the CharDB under its stream key: ComputeTime
// carries Gcycles/s, ShuffleRead/Write carry bytes/s, PeakMemory the
// state size. This is the evidence path the rupam placer reads.
func (r *Runtime) feedCharDB(now float64) {
	for _, id := range r.topo.TopoOrder() {
		st := &r.ops[id]
		if st.winConsumed <= 0 && st.winOutBytes <= 0 {
			continue
		}
		cpu := st.winCycles / charDBInterval
		inBps := st.winInBytes / charDBInterval
		outBps := st.winOutBytes / charDBInterval
		m := &task.Metrics{
			Executor:         r.placed[id],
			Start:            now - charDBInterval,
			End:              now,
			ComputeTime:      cpu,
			ShuffleReadTime:  inBps,
			ShuffleWriteTime: outBps,
			PeakMemory:       st.op.StateBytes,
		}
		bottleneck := core.CPU
		n := r.clu.Nodes[r.host[id]]
		if (inBps+outBps)/n.Spec.NetBandwidth > cpu/n.Spec.CPUCapacity() {
			bottleneck = core.Net
		}
		r.db.Update(st.key, m, bottleneck, true)
		st.winCycles, st.winConsumed, st.winInBytes, st.winOutBytes = 0, 0, 0, 0
	}
}

// triggerMigrations evaluates the per-tick migration policy: the forced
// migration (soak determinism), gray degradation, and persistent
// overload after a load spike.
func (r *Runtime) triggerMigrations(now float64) {
	if r.cfg.ForceMigrateAt > 0 && now >= r.cfg.ForceMigrateAt && !r.forcedDone {
		// Most backlogged operator, ties to the lowest ID.
		bestID, bestBack := -1, -1.0
		for _, id := range r.topo.TopoOrder() {
			st := &r.ops[id]
			if st.mig != nil {
				continue
			}
			if back := st.backlog(); back > bestBack {
				bestID, bestBack = id, back
			}
		}
		if bestID >= 0 && r.startMigration(bestID, -1, "forced", false) {
			r.forcedDone = true
		}
	}
	for _, id := range r.topo.TopoOrder() {
		st := &r.ops[id]
		if st.mig != nil || len(st.in) == 0 {
			st.overTicks = 0
			continue
		}
		if now-st.lastMigration < migrationCooldown {
			continue
		}
		node := r.clu.Nodes[r.host[id]]
		capSum, back := 0.0, 0.0
		for _, ch := range st.in {
			capSum += ch.capacity
			back += ch.q.count
		}
		gray := node.CPU.PerClaimCap() < grayFreqFrac*node.Spec.FreqGHz
		switch {
		case gray && back > grayBacklogFrac*capSum:
			st.overTicks++
			if st.overTicks >= grayTicks {
				if r.startMigration(id, -1, "gray-degradation", false) {
					st.overTicks = 0
				}
			}
		case back > spikeBacklogFrac*capSum:
			st.overTicks++
			if st.overTicks >= spikeTicks {
				if r.startMigration(id, -1, "overload", false) {
					st.overTicks = 0
				}
			}
		default:
			st.overTicks = 0
		}
	}
}

// evacuate gracefully migrates every operator off a doomed node (spot
// notice: the host is still alive for the grace window).
func (r *Runtime) evacuate(node, reason string) {
	i, ok := r.nodeIx[node]
	if !ok {
		return
	}
	for _, id := range r.topo.TopoOrder() {
		if r.host[id] == i && r.ops[id].mig == nil {
			r.startMigration(id, -1, reason, false)
		}
	}
}

// failover emergency-migrates every operator still homed on a dead node.
func (r *Runtime) failover(node, reason string) {
	i, ok := r.nodeIx[node]
	if !ok {
		return
	}
	for _, id := range r.topo.TopoOrder() {
		if r.host[id] == i {
			r.emergency(id, reason)
		}
	}
}
