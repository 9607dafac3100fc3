package tenant

import (
	"cmp"
	"slices"
)

// This file is the FAIR policy layer — the Spark fair scheduler's pool
// model reduced to its arbitration essence. Every scheduling round:
//
//  1. each pool's slot share is computed by water-filling total cluster
//     capacity over the pools' demands — minShares first, then the rest
//     in proportion to pool weights;
//  2. a pool's share is split over its applications FIFO (oldest first),
//     capped by each application's actual demand;
//  3. applications dispatch most-starved-first, each one's own
//     heterogeneity scheduler picking tasks and nodes, with the runtime's
//     slot cap stopping it at its FAIR share.
//
// The heterogeneity heuristics keep choosing *which node* a task lands
// on; this layer only decides *which application's tasks* may launch.

// pendingCounter is the scheduler capability both shipped policies
// implement; demand = live attempts + genuinely pending tasks.
type pendingCounter interface {
	PendingTasks() int
}

func (m *Manager) demandOf(a *appState) (live, pending int) {
	live = a.rt.LiveAttempts()
	if pc, ok := a.rt.Scheduler().(pendingCounter); ok {
		pending = pc.PendingTasks()
	}
	return live, pending
}

// ScheduleAll runs a global FAIR scheduling round over every active
// application. Launch completions re-enter it recursively (a launched
// task frees nothing, but task-end callbacks do); the guard flattens the
// recursion into an iterative drain so rounds never nest.
func (m *Manager) ScheduleAll() {
	if m.scheduling {
		m.dirty = true
		return
	}
	m.scheduling = true
	for {
		m.dirty = false
		m.fairRound()
		if !m.dirty {
			break
		}
	}
	m.scheduling = false
}

// poolShare is one pool's state within a round.
type poolShare struct {
	cfg    PoolConfig
	apps   []*appState
	demand int
	grant  int
}

// fairRound computes shares and dispatches one pass. Its apps and pool
// table are per-Manager scratch, reset every round: rounds never nest
// (ScheduleAll's guard), and nothing keeps them past the round.
func (m *Manager) fairRound() {
	running := append(m.roundApps[:0], m.running...)
	slices.SortFunc(running, func(a, b *appState) int { return cmp.Compare(a.idx, b.idx) })
	pools := m.poolTable(running)
	apps := running[:0]
	for _, a := range running {
		if !a.done && !a.rt.Crashed() {
			apps = append(apps, a)
		}
	}
	m.roundApps = running
	if len(apps) == 0 {
		return
	}

	for _, a := range apps {
		live, pending := m.demandOf(a)
		a.liveNow = live
		a.demandNow = live + pending
		p := m.poolByName[a.pool]
		p.apps = append(p.apps, a)
		p.demand += a.demandNow
	}

	waterFill(m.capacity, pools)

	// Within a pool: FIFO by arrival. The pool's grant flows down the
	// queue, each application taking at most its demand.
	for _, p := range pools {
		rem := p.grant
		for _, a := range p.apps {
			g := a.demandNow
			if g > rem {
				g = rem
			}
			a.slotTarget = g
			rem -= g
		}
	}

	// Dispatch most-starved-first: the application furthest below its
	// share launches before better-served siblings consume the freed
	// slots. Ties break by arrival order.
	order := apps
	frac := func(a *appState) float64 {
		if a.slotTarget <= 0 {
			return 2 // nothing owed; go last
		}
		return float64(a.liveNow) / float64(a.slotTarget)
	}
	slices.SortStableFunc(order, func(a, b *appState) int {
		fa, fb := frac(a), frac(b)
		if fa != fb {
			return cmp.Compare(fa, fb)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for _, a := range order {
		if a.slotTarget > a.liveNow {
			a.rt.Scheduler().Schedule()
		}
	}
}

// poolTable materializes the fairPools (in their order) plus a
// default-weight pool for any of the running applications (in arrival
// order) naming an undeclared pool. The returned pools are the Manager's
// pool table, reset to empty shares; poolByName indexes them.
func (m *Manager) poolTable(running []*appState) []*poolShare {
	clear(m.poolByName)
	m.pools = m.pools[:0]
	for _, pc := range fairPools {
		m.addPool(pc)
	}
	for _, a := range running {
		if _, ok := m.poolByName[a.pool]; !ok {
			m.addPool(PoolConfig{Name: a.pool, Weight: 1})
		}
	}
	return m.pools
}

// addPool appends cfg to the pool table, reusing a previous round's
// poolShare where one is left beyond the table's length.
func (m *Manager) addPool(cfg PoolConfig) {
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	var p *poolShare
	if n := len(m.pools); n < cap(m.pools) {
		p = m.pools[:n+1][n]
	}
	if p == nil {
		p = new(poolShare)
	}
	*p = poolShare{cfg: cfg, apps: p.apps[:0]}
	m.pools = append(m.pools, p)
	m.poolByName[cfg.Name] = p
}

// waterFill distributes capacity over the pools: every pool first gets
// min(minShare, demand), then the remainder goes out in passes
// proportional to weight, capped by unmet demand, until capacity or
// demand is exhausted. Integer arithmetic, deterministic pool order.
func waterFill(capacity int, pools []*poolShare) {
	rem := capacity
	for _, p := range pools {
		g := p.cfg.MinShare
		if g > p.demand {
			g = p.demand
		}
		if g > rem {
			g = rem
		}
		p.grant = g
		rem -= g
	}
	for rem > 0 {
		var sumW float64
		for _, p := range pools {
			if p.grant < p.demand {
				sumW += p.cfg.Weight
			}
		}
		if sumW == 0 {
			break
		}
		progressed := false
		pass := rem
		for _, p := range pools {
			if p.grant >= p.demand {
				continue
			}
			add := int(float64(pass) * p.cfg.Weight / sumW)
			if add < 1 {
				add = 1
			}
			if d := p.demand - p.grant; add > d {
				add = d
			}
			if add > rem {
				add = rem
			}
			if add > 0 {
				p.grant += add
				rem -= add
				progressed = true
			}
			if rem == 0 {
				break
			}
		}
		if !progressed {
			break
		}
	}
}
