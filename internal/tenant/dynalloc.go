package tenant

import (
	"fmt"
	"sort"
)

// This file is dynamic executor allocation: each application holds core
// leases on a subset of nodes (the simulated equivalent of its executor
// set). A persistent scheduler backlog doubles the lease count
// (spark.dynamicAllocation backlog timeouts); a lease whose node ran none
// of the application's tasks for the idle timeout is released, dropping
// the application's cached partitions there — which then survive only
// through the existing lineage re-read and CharDB relearn paths. Leases
// never oversubscribe a node: Σ leased cores per node ≤ the node's cores,
// checked at every grant and tracked as a high-water mark for the report.

// Dynamic executor allocation's fixed parameters.
const (
	// initialExecs is the lease count an application starts with
	// (spark.dynamicAllocation.initialExecutors).
	initialExecs = 1
	// execCores is the lease grant granularity in cores — the simulated
	// equivalent of one executor process.
	execCores = 8
	// backlogTimeout is how long a scheduler backlog must persist before
	// the application's lease count doubles.
	backlogTimeout float64 = 2
	// idleTimeout releases a lease whose node ran none of the
	// application's tasks for this long.
	idleTimeout float64 = 10
	// dynallocInterval is the allocation evaluation period.
	dynallocInterval float64 = 1
)

// armDynalloc starts the periodic allocation evaluation.
func (m *Manager) armDynalloc() {
	m.dynTimer = m.eng.Schedule(dynallocInterval, func() {
		if m.finished {
			return
		}
		m.dynallocTick()
		m.armDynalloc()
	})
}

// dynallocTick evaluates every running application: refresh busy stamps,
// release idle leases, scale up backlogged applications, and audit
// cross-application cache isolation.
func (m *Manager) dynallocTick() {
	now := m.eng.Now()
	changed := false
	for _, a := range m.activeApps() {
		for _, node := range sortedLeaseNodes(a) {
			if a.rt.RunningOn(node) > 0 {
				a.lastBusy[node] = now
			}
		}
		// Scale down: idle leases go back to the cluster, keeping one
		// lease while the application lives so it can always make
		// progress (minExecutors=1).
		for _, node := range sortedLeaseNodes(a) {
			if len(a.leases) <= 1 {
				break
			}
			if now-a.lastBusy[node] > idleTimeout {
				m.releaseLease(a, node, "idle-timeout")
				changed = true
			}
		}
		// Scale up: a backlog that outlives the timeout doubles the
		// lease count, capped by what the demand can actually use. Leases
		// on draining (preemption-noticed) nodes are walking dead — they
		// count as zero here so the doubling reflects capacity that will
		// still exist, and replacements are granted while the doomed node
		// works through its grace window.
		_, pending := m.demandOf(a)
		if pending > 0 && now-a.lastScale >= backlogTimeout {
			live, pend := m.demandOf(a)
			needExecs := (live + pend + execCores - 1) / execCores
			effLeases := 0
			for node := range a.leases {
				if !m.draining[node] {
					effLeases++
				}
			}
			want := 2 * effLeases
			if want < 1 {
				want = 1
			}
			if want > needExecs {
				want = needExecs
			}
			if want > effLeases {
				if granted := m.scaleUp(a, want-effLeases); granted > 0 {
					a.lastScale = now
					changed = true
				}
			}
		}
	}
	if m.cfg.Elastic.Enabled {
		m.releaseIdleInstances()
	}
	m.auditIsolation()
	if changed {
		m.ScheduleAll()
	}
}

// sortedLeaseNodes returns the application's leased nodes in name order.
func sortedLeaseNodes(a *appState) []string {
	nodes := make([]string, 0, len(a.leases))
	for n := range a.leases {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// grantInitial gives a starting application its initial executor leases.
func (m *Manager) grantInitial(a *appState) {
	m.scaleUp(a, initialExecs)
}

// scaleUp grants up to n one-executor leases on nodes with spare lease
// capacity, in cluster order, and returns how many were granted. An
// application holds at most one lease per node (its executor there).
func (m *Manager) scaleUp(a *appState, n int) int {
	granted := 0
	for _, node := range m.nodeOrder {
		if granted >= n {
			break
		}
		if a.leases[node] > 0 {
			continue
		}
		if !m.instanceUsable(node) {
			continue // not acquired from the market, or draining toward a kill
		}
		if m.clu.Node(node).Spec.Cores-m.leasedNow[node] < execCores {
			continue
		}
		a.leases[node] = execCores
		a.lastBusy[node] = m.eng.Now()
		m.leasedNow[node] += execCores
		if m.leasedNow[node] > m.clu.Node(node).Spec.Cores {
			m.violations = append(m.violations, fmt.Sprintf(
				"lease capacity exceeded on %s: %d cores leased of %d",
				node, m.leasedNow[node], m.clu.Node(node).Spec.Cores))
		}
		if m.leasedNow[node] > m.leaseHighWater[node] {
			m.leaseHighWater[node] = m.leasedNow[node]
		}
		if tot := m.totalLeased(); tot > m.peakLeased {
			m.peakLeased = tot
		}
		m.cfg.Tracer.LeaseChanged(a.label, node, execCores, "scale-up")
		granted++
	}
	if granted > 0 && a.rt != nil {
		a.rt.Scheduler().ExecutorSetChanged()
	}
	if granted < n {
		// Unmet demand becomes an acquisition request (no-op unless the
		// elastic market is on): the pilot queue delivers capacity later
		// and the next allocation tick retries the grant.
		m.requestInstances(n - granted)
	}
	return granted
}

// releaseLease returns one lease to the cluster. The application's cached
// partitions on that node are dropped (its executor there is going away;
// a node-level external shuffle service keeps map outputs alive, so only
// cache state is lost) and the heap bytes they held are freed.
func (m *Manager) releaseLease(a *appState, node string, reason string) {
	cores, ok := a.leases[node]
	if !ok {
		return
	}
	delete(a.leases, node)
	delete(a.lastBusy, node)
	m.leasedNow[node] -= cores
	if ex := m.sub.Execs[node]; ex != nil && !ex.Down() {
		if bytes := m.sub.Cache.DropNodeRange(node, a.base, a.base+IDSpan); bytes > 0 {
			ex.Heap().Release(bytes)
		}
	}
	m.cfg.Tracer.LeaseChanged(a.label, node, 0, reason)
	if a.rt != nil && !a.done {
		a.rt.Scheduler().ExecutorSetChanged()
	}
}

// releaseAllLeases drains an application's lease set (app completion).
func (m *Manager) releaseAllLeases(a *appState, reason string) {
	for _, node := range sortedLeaseNodes(a) {
		m.releaseLease(a, node, reason)
	}
}

// totalLeased sums currently leased cores across the cluster.
func (m *Manager) totalLeased() int {
	tot := 0
	for _, n := range m.leasedNow {
		tot += n
	}
	return tot
}
