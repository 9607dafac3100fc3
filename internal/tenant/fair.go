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

// fairRound computes shares and dispatches one pass.
func (m *Manager) fairRound() {
	apps := make([]*appState, 0, len(m.running))
	for _, a := range m.activeApps() {
		if !a.done && !a.rt.Crashed() {
			apps = append(apps, a)
		}
	}
	if len(apps) == 0 {
		return
	}

	pools, byName := m.poolTable()
	for _, a := range apps {
		live, pending := m.demandOf(a)
		a.liveNow = live
		a.demandNow = live + pending
		p := byName[a.pool]
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
// default-weight pool for any mix entry naming an undeclared pool.
func (m *Manager) poolTable() ([]*poolShare, map[string]*poolShare) {
	pools := make([]*poolShare, 0, len(fairPools))
	byName := make(map[string]*poolShare)
	add := func(cfg PoolConfig) {
		if cfg.Weight <= 0 {
			cfg.Weight = 1
		}
		p := &poolShare{cfg: cfg}
		pools = append(pools, p)
		byName[cfg.Name] = p
	}
	for _, pc := range fairPools {
		add(pc)
	}
	for _, a := range m.activeApps() {
		if _, ok := byName[a.pool]; !ok {
			add(PoolConfig{Name: a.pool, Weight: 1})
		}
	}
	return pools, byName
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
