package tenant

import (
	"fmt"
	"math"
	"sort"

	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/simx"
)

// This file is the elastic cloud substrate: the workload manager stops
// treating the cluster as a fixed asset and instead *acquires* instances
// from a priced market (on-demand or spot per node class), holds them
// while leases need them, and releases them when idle — metering $-cost
// the whole way. Acquisition is a pilot-job queue: requests batch, arrive
// after a provisioning delay, and capacity denials retry under bounded
// deterministic exponential backoff. Spot instances come with a preemption
// hazard; the manager routes provider notices into every running driver's
// graceful-drain path (spark.PreemptNotice/SpotKill), fences draining
// instances out of lease grants, and requests replacement capacity the
// moment a leased instance is doomed. Scale-up chooses between spot and
// on-demand flavors by effective price: the spot rate inflated by the
// CharDB-predicted probability of losing the hold's remaining work.

// ElasticConfig parameterizes the elastic substrate. The zero value
// (Enabled=false) preserves the fixed-cluster behavior exactly.
type ElasticConfig struct {
	// Enabled turns the instance market on: lease grants then require an
	// acquired (held) instance, and idle instances are released.
	Enabled bool
	// SpotNodes names the nodes billed (and preemption-hazarded) as spot
	// instances; every other node is on-demand. Node→billing is fixed for
	// the run so the fault plan's per-node hazard draws stay meaningful.
	SpotNodes []string
	// IgnoreNotices is the baseline policy for the elastic experiment: the
	// substrate drops preemption warnings on the floor, so drivers take
	// every kill cold (heartbeat-timeout discovery, fetch-failure storms,
	// charged losses) instead of draining through the grace window.
	IgnoreNotices bool
}

// PreemptGen is the reclamation horizon and grace bounds of the
// preemption soak and the elastic sweep; the per-node rates come from the
// market hazards, not from here.
func PreemptGen() faults.GenConfig {
	return faults.GenConfig{Horizon: 150, MinGrace: 6, MaxGrace: 20}
}

// DefaultSpotNodes is the default spot pool: half of each Hydra class,
// never thor1 (the driver node — reclaiming it would model losing the
// cluster manager itself, which is the recovery soak's job).
func DefaultSpotNodes() []string {
	return []string{"thor4", "thor5", "thor6", "hulk3", "hulk4", "stack2"}
}

// SpotHazards maps each spot node to its class's preemption hazard in the
// default market (expected reclamations/hour), resolving classes through
// the reference Hydra cluster. Input for faults.SpotSchedule.
func SpotHazards(spotNodes []string) map[string]float64 {
	market := cluster.DefaultMarket()
	clu := cluster.New(simx.NewEngine())
	cluster.NewHydra(clu)
	hz := make(map[string]float64, len(spotNodes))
	for _, name := range spotNodes {
		if n := clu.Node(name); n != nil {
			hz[name] = market.Hazard(n.Spec.Class)
		}
	}
	return hz
}

// The elastic substrate's fixed parameters.
const (
	// queueDelay is the pilot-job provisioning latency: seconds between an
	// acquisition request and its grant batch arriving.
	queueDelay float64 = 5
	// batchSize caps instances granted per batch arrival.
	batchSize = 2
	// backoffBase is the first retry delay after a capacity denial; retry
	// i waits min(backoffBase·2^(i−1), backoffMax) seconds. A successful
	// grant resets the schedule.
	backoffBase float64 = 2
	backoffMax  float64 = 60
	// instanceIdleTimeout releases a held instance no application has
	// leased for this long. Release is structurally drain-first: an
	// instance is only idle once every lease on it is gone.
	instanceIdleTimeout float64 = 30
	// defaultTaskSeconds is the per-task work estimate used by the
	// spot-vs-on-demand choice before the CharDB has observations.
	defaultTaskSeconds float64 = 2
	// reworkPenalty scales the expected-preemption surcharge on the spot
	// price: eff = spot·(1 + reworkPenalty·P(preempt before work drains)).
	reworkPenalty float64 = 3
)

// initElastic sets up the market state; called from Run before arrivals.
func (m *Manager) initElastic() {
	m.market = cluster.DefaultMarket()
	m.draining = make(map[string]bool)
	m.held = make(map[string]bool)
	m.holdStart = make(map[string]float64)
	m.holdIdle = make(map[string]float64)
	m.spotSet = make(map[string]bool)
	for _, n := range m.cfg.Elastic.SpotNodes {
		m.spotSet[n] = true
	}
}

// instanceUsable reports whether a lease may be granted on node: never on
// a draining (preemption-noticed) instance, and in elastic mode only on a
// currently held one.
func (m *Manager) instanceUsable(node string) bool {
	if m.draining[node] {
		return false
	}
	if !m.cfg.Elastic.Enabled {
		return true
	}
	return m.held[node]
}

// billingOf returns the node's fixed billing flavor.
func (m *Manager) billingOf(node string) cluster.Billing {
	if m.spotSet[node] {
		return cluster.Spot
	}
	return cluster.OnDemand
}

// priceOf returns the node's sticker $/hour.
func (m *Manager) priceOf(node string) float64 {
	return m.market.Price(m.clu.Node(node).Spec.Class, m.billingOf(node))
}

// predictedHoldSeconds estimates how long a newly acquired instance would
// stay busy: cluster-wide pending demand times the CharDB's mean observed
// task compute time (defaultTaskSeconds before any history), divided over
// the instance's lease cores.
func (m *Manager) predictedHoldSeconds() float64 {
	taskSec := defaultTaskSeconds
	if m.sharedDB != nil {
		if mean, ok := m.sharedDB.MeanComputeTime(); ok && mean > 0 {
			taskSec = mean
		}
	}
	pending := 0
	for _, a := range m.activeApps() {
		_, p := m.demandOf(a)
		pending += p
	}
	work := float64(pending) * taskSec / execCores
	if work < taskSec {
		work = taskSec
	}
	return work
}

// effectivePrice is the spot-vs-on-demand decision rule: an on-demand
// node costs its sticker rate; a spot node costs its sticker rate plus a
// rework surcharge weighted by the probability the provider reclaims it
// before the predicted work drains (hazard is Poisson per hour).
func (m *Manager) effectivePrice(node string, holdSec float64) float64 {
	class := m.clu.Node(node).Spec.Class
	if !m.spotSet[node] {
		return m.market.Price(class, cluster.OnDemand)
	}
	spot := m.market.Price(class, cluster.Spot)
	pKill := 1 - math.Exp(-m.market.Hazard(class)*holdSec/3600)
	return spot * (1 + reworkPenalty*pKill)
}

// requestInstances asks the pilot-job queue for capacity. Requests are
// level-triggered (the want is a shortfall, re-derived every allocation
// tick, so it maxes rather than accumulates) and coalesce into the batch
// already in flight.
func (m *Manager) requestInstances(n int) {
	if !m.cfg.Elastic.Enabled || m.finished || n <= 0 {
		return
	}
	if n > m.reqWanted {
		m.reqWanted = n
	}
	if m.reqPending {
		return
	}
	m.reqPending = true
	m.eng.Schedule(queueDelay, m.grantInstances)
}

// grantInstances is the batch arrival: grant up to batchSize of the
// cheapest-effective unheld instances, or record a capacity denial and
// back off exponentially (bounded, deterministic, reset by any grant).
func (m *Manager) grantInstances() {
	m.reqPending = false
	if m.finished {
		m.reqWanted = 0
		return
	}
	if m.reqWanted <= 0 {
		return
	}
	var cands []string
	for _, node := range m.nodeOrder {
		if m.held[node] || m.draining[node] {
			continue
		}
		cands = append(cands, node)
	}
	hold := m.predictedHoldSeconds()
	sort.SliceStable(cands, func(i, j int) bool {
		return m.effectivePrice(cands[i], hold) < m.effectivePrice(cands[j], hold)
	})
	n := m.reqWanted
	if n > batchSize {
		n = batchSize
	}
	if n > len(cands) {
		n = len(cands)
	}
	if n == 0 {
		m.denials++
		m.reqAttempt++
		delay := backoffBase * math.Pow(2, float64(m.reqAttempt-1))
		if delay > backoffMax {
			delay = backoffMax
		}
		m.backoffDelays = append(m.backoffDelays, delay)
		m.cfg.Tracer.InstanceDenied(m.reqWanted, m.reqAttempt, delay)
		m.reqPending = true
		m.eng.Schedule(delay, m.grantInstances)
		return
	}
	for i := 0; i < n; i++ {
		m.acquireInstance(cands[i])
	}
	m.reqAttempt = 0
	m.reqWanted -= n
	if m.reqWanted > 0 {
		m.reqPending = true
		m.eng.Schedule(queueDelay, m.grantInstances)
	}
	m.ScheduleAll()
}

// acquireInstance takes one instance from the market. Re-acquiring a node
// the provider reclaimed earlier models getting a *new* instance of the
// same class under the same name: the executor reactivates with a fresh
// incarnation and every driver's rejoin path lifts its preemption fence.
func (m *Manager) acquireInstance(node string) {
	now := m.eng.Now()
	m.held[node] = true
	m.holdStart[node] = now
	m.holdIdle[node] = now
	m.acquisitions++
	m.cfg.Tracer.InstanceAcquired(node, m.billingOf(node).String(), m.priceOf(node))
	if ex := m.sub.Execs[node]; ex != nil && ex.FailStopped() {
		ex.Reactivate()
	}
}

// releaseInstance returns one instance to the market and closes out its
// bill. Safe to call on an unheld node (no-op).
func (m *Manager) releaseInstance(node, reason string) {
	if !m.held[node] {
		return
	}
	delete(m.held, node)
	heldFor := m.eng.Now() - m.holdStart[node]
	cost := heldFor / 3600 * m.priceOf(node)
	m.cloudCost += cost
	m.cfg.Tracer.InstanceReleased(node, reason, heldFor, cost)
}

// releaseIdleInstances is the autoscaler's scale-down half, run every
// allocation tick: a held instance whose leases all drained away (idle
// past the timeout) goes back to the market. Draining instances are left
// alone — their bill closes at the kill.
func (m *Manager) releaseIdleInstances() {
	now := m.eng.Now()
	for _, node := range m.nodeOrder {
		if !m.held[node] {
			continue
		}
		if m.leasedNow[node] > 0 {
			m.holdIdle[node] = now
			continue
		}
		if m.draining[node] {
			continue
		}
		if now-m.holdIdle[node] > instanceIdleTimeout {
			m.releaseInstance(node, "idle")
		}
	}
}

// startedApps returns every application that ever ran, in arrival order
// (kill fan-out must reach apps that finished during the grace window).
func (m *Manager) startedApps() []*appState {
	var out []*appState
	for _, a := range m.apps {
		if a.started && a.rt != nil {
			out = append(out, a)
		}
	}
	return out
}

// onSpotNotice is the provider's preemption warning. Graceful mode fences
// the instance, fans the notice into every running driver's drain path,
// deregisters the doomed node from the allocator, and orders replacement
// capacity while the node is still serving; IgnoreNotices drops it (the
// baseline the experiment measures against).
func (m *Manager) onSpotNotice(node string, grace float64) {
	m.spotNotices++
	if m.cfg.Elastic.IgnoreNotices {
		return
	}
	m.draining[node] = true
	for _, a := range m.activeApps() {
		a.rt.PreemptNotice(node, grace)
	}
	// Order replacement capacity immediately, one instance per application
	// holding a lease on the doomed node: the pilot queue's delay plus the
	// allocation tick roughly matches the grace window, so replacements
	// arrive as the node closes. Leases on the node stay until the kill —
	// the drivers keep it productive up to their fence points — but the
	// allocator no longer counts them as capacity (see dynallocTick).
	if m.cfg.Elastic.Enabled {
		lost := 0
		for _, a := range m.activeApps() {
			if a.leases[node] > 0 {
				lost++
			}
		}
		m.requestInstances(lost)
	}
}

// onSpotKill is the instance actually dying. In graceful mode the drivers
// hear it as an announced loss (uncharged, drain-audited); with notices
// ignored they discover it the hard way through heartbeat timeouts. In
// both modes the cluster manager promptly observes the node's death:
// leases on it are force-released and the instance's bill closes.
func (m *Manager) onSpotKill(node string) {
	m.spotKills++
	delete(m.draining, node)
	if !m.cfg.Elastic.IgnoreNotices {
		// Every app that heard the notice must also hear the kill, even if
		// it finished mid-grace — the drain record stays open otherwise.
		for _, a := range m.startedApps() {
			a.rt.SpotKill(node)
		}
	}
	lostLease := false
	for _, a := range m.activeApps() {
		if a.leases[node] > 0 {
			m.releaseLease(a, node, "spot-preempted")
			lostLease = true
		}
	}
	if m.cfg.Elastic.Enabled {
		m.releaseInstance(node, "spot-preempted")
		if lostLease {
			m.requestInstances(1)
		}
	}
	m.ScheduleAll()
}

// checkElasticEndState extends the invariant battery: after the run every
// instance must be back at the market with its bill closed.
func (m *Manager) checkElasticEndState() {
	for _, node := range m.nodeOrder {
		if m.held[node] {
			m.violate(fmt.Sprintf("instance %s still held after run end", node))
		}
		if m.draining[node] {
			m.violate(fmt.Sprintf("instance %s still draining after run end", node))
		}
	}
	if m.cfg.Elastic.Enabled && m.cloudCost <= 0 && m.acquisitions > 0 {
		m.violate("instances were acquired but no cost accrued")
	}
}

// AcquireDenials returns how many capacity denials the pilot queue hit.
func (m *Manager) AcquireDenials() int { return m.denials }

// BackoffDelays returns the denial retry delays in order — the test hook
// for the deterministic bounded-exponential schedule.
func (m *Manager) BackoffDelays() []float64 {
	return append([]float64(nil), m.backoffDelays...)
}

// SpotEvents returns (notices heard, kills observed) at the manager.
func (m *Manager) SpotEvents() (int, int) { return m.spotNotices, m.spotKills }
