package streaming

import (
	"fmt"
	"testing"
)

// TestTickFillCount pins how many water-fills the network runs in one
// fault-free run on the benchmark envelope. The default placer spreads
// this topology's operators, so wires open and close all run long.
// manageWires starts and cancels them under one hold, so a tick re-rates
// at most once for them; without the hold this run takes 518 fills.
func TestTickFillCount(t *testing.T) {
	const want = 221
	res := Run(Config{Seed: 1, Placer: "default", Topo: BenchEnvelope(), Horizon: 90, Warmup: 18})
	if got := res.Clu.Net.Fills(); got != want {
		t.Fatalf("fault-free 90 s run ran %d water-fills, want %d", got, want)
	}
}

// RunCheckingIndex is Run with the node index checked around every
// tick; report receives each disagreement between the index-keyed state
// and the names it stands for. Before and after a tick, host[id] must
// name placed[id] and every live wire's stored endpoints must be its
// Src and Dst. After a tick, every non-source operator must sit in
// exactly one resident list, its host's. (Between ticks a migration may
// finish, so the lists are checked only once the tick has rebuilt them.)
func RunCheckingIndex(cfg Config, report func(problem string)) *Result {
	r := newRuntime(cfg)
	tick := r.tickFn
	r.tickFn = func() {
		r.checkIndex("before", report)
		tick()
		r.checkIndex("after", report)
		r.checkResidents(report)
	}
	return r.run()
}

func (r *Runtime) checkIndex(when string, report func(string)) {
	now := r.eng.Now()
	for id, h := range r.host {
		if got := r.nodeName(h); got != r.placed[id] {
			report(fmt.Sprintf("t=%g %s tick: operator %d host index names %s, placed on %s",
				now, when, id, got, r.placed[id]))
		}
	}
	for _, ch := range r.chans {
		if ch.wire == nil || ch.wire.Done() {
			continue
		}
		if src, dst := r.nodeName(ch.wireSrc), r.nodeName(ch.wireDst); src != ch.wire.Src() || dst != ch.wire.Dst() {
			report(fmt.Sprintf("t=%g %s tick: wire %d->%d stored as %s->%s, runs %s->%s",
				now, when, ch.from, ch.to, src, dst, ch.wire.Src(), ch.wire.Dst()))
		}
	}
}

func (r *Runtime) checkResidents(report func(string)) {
	now := r.eng.Now()
	seen := make([]int, len(r.ops))
	for node, ids := range r.resident {
		for _, id := range ids {
			seen[id]++
			if r.host[id] != node {
				report(fmt.Sprintf("t=%g: operator %d listed on node %d, hosted on %d", now, id, node, r.host[id]))
			}
		}
	}
	for id := range r.ops {
		want := 1
		if len(r.ops[id].in) == 0 {
			want = 0 // sources emit in their own phase
		}
		if seen[id] != want {
			report(fmt.Sprintf("t=%g: operator %d in %d resident lists, want %d", now, id, seen[id], want))
		}
	}
}
