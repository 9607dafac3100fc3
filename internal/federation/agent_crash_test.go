package federation_test

import (
	"fmt"
	"testing"

	"rupam/internal/faults"
	"rupam/internal/federation"
	"rupam/internal/simx"
)

// TestAgentCrashFencesUntilRestart is the direct protocol regression for
// the agent fault domain: while the agent is down a PROPOSE gets no answer
// at all (the daemon's socket is dead), and after restart a PROPOSE still
// stamped with the pre-crash incarnation is rejected while a fresh one
// under the new incarnation is accepted.
func TestAgentCrashFencesUntilRestart(t *testing.T) {
	eng := simx.NewEngine()
	plane := federation.NewPlane(eng, 1)
	agent := federation.NewAgent(eng, plane, "node1", 2, func(v string) {
		t.Errorf("violation: %s", v)
	})

	var replies []string
	plane.Handle("driver:0", func(from string, m federation.Message) {
		replies = append(replies, fmt.Sprintf("%s %s inc%d", m.Type, m.Claim, m.Inc))
	})

	c1 := federation.ClaimID{Driver: 0, Seq: 1}
	c2 := federation.ClaimID{Driver: 0, Seq: 2}
	eng.At(0, func() {
		plane.Send("driver:0", "node1", federation.Message{Type: federation.Propose, Claim: c1, Slots: 1})
	})
	eng.At(0.1, agent.Crash)
	// Down: this PROPOSE must vanish without any reply.
	eng.At(0.2, func() {
		plane.Send("driver:0", "node1", federation.Message{Type: federation.Propose, Claim: c1, Slots: 1})
	})
	eng.At(0.3, agent.Restart)
	// Restarted: a stale-incarnation PROPOSE is fenced off...
	eng.At(0.4, func() {
		plane.Send("driver:0", "node1", federation.Message{Type: federation.Propose, Claim: c1, Slots: 1})
	})
	// ...and a fresh one under incarnation 1 goes through.
	eng.At(0.5, func() {
		plane.Send("driver:0", "node1", federation.Message{Type: federation.Propose, Claim: c2, Slots: 1, Inc: 1})
	})
	eng.At(0.6, func() {
		plane.Send("driver:0", "node1", federation.Message{Type: federation.Abort, Claim: c2, Inc: 1})
	})
	eng.Run()

	want := fmt.Sprint([]string{
		"ACCEPT d0:1 inc0", "REJECT d0:1 inc1", "ACCEPT d0:2 inc1", "ABORT_ACK d0:2 inc1",
	})
	if fmt.Sprint(replies) != want {
		t.Fatalf("replies = %v, want %v", replies, want)
	}
	if agent.Incarnation() != 1 {
		t.Fatalf("incarnation = %d, want 1", agent.Incarnation())
	}
	if agent.Crashes != 1 || agent.Restarts != 1 || agent.StaleRejects != 1 {
		t.Fatalf("crashes=%d restarts=%d staleRejects=%d, want 1/1/1",
			agent.Crashes, agent.Restarts, agent.StaleRejects)
	}
	if agent.Rejects != 0 {
		t.Fatalf("stale fence tombstoned: rejects=%d, want 0", agent.Rejects)
	}
	if agent.Reserved() != 0 || agent.LiveClaims() != 0 {
		t.Fatalf("leaked: reserved=%d live=%d", agent.Reserved(), agent.LiveClaims())
	}
}

// TestNodeCrashKillsColocatedAgent is the coupling regression: a NodeCrash
// fault must take the co-located agent down with the executor, and the
// agent must come back (and resync) once the node recovers — the run still
// finishes clean.
func TestNodeCrashKillsColocatedAgent(t *testing.T) {
	plan := &faults.Schedule{Events: []faults.Event{
		{At: 3, Kind: faults.NodeCrash, Node: "thor1", Duration: 15},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	res := federation.Run(federation.Config{Drivers: 2, Seed: 5, Faults: plan})
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Completed != 4 {
		t.Fatalf("completed=%d, want 4", res.Completed)
	}
	if res.AgentCrashes == 0 {
		t.Fatalf("node crash did not kill the co-located agent")
	}
	if res.AgentRestarts == 0 {
		t.Fatalf("agent never restarted after node recovery")
	}
}

// TestAgentCrashResyncs drives a pure agent fault (executors keep running;
// only the daemon dies) and checks the RESYNC handshake actually ran.
func TestAgentCrashResyncs(t *testing.T) {
	plan := &faults.Schedule{Events: []faults.Event{
		{At: 3, Kind: faults.AgentCrash, Node: "thor1", Duration: 5},
	}}
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	res := federation.Run(federation.Config{Drivers: 2, Seed: 9, Faults: plan})
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.Completed != 4 {
		t.Fatalf("completed=%d, want 4", res.Completed)
	}
	if res.AgentCrashes != 1 || res.AgentRestarts != 1 {
		t.Fatalf("agentCrashes=%d agentRestarts=%d, want 1/1", res.AgentCrashes, res.AgentRestarts)
	}
	if res.Resyncs == 0 {
		t.Fatalf("restarted agent never closed a resync handshake")
	}
}

// TestAgentFaultDeterminism re-runs a seeded agent-fault run and demands a
// bit-identical fingerprint — the fault path must be as deterministic as
// the fault-free one.
func TestAgentFaultDeterminism(t *testing.T) {
	plan := func() *faults.Schedule {
		return &faults.Schedule{Events: []faults.Event{
			{At: 3, Kind: faults.AgentCrash, Node: "thor2", Duration: 4},
			{At: 12, Kind: faults.AgentCrash, Node: "hulk1", Duration: 6},
		}}
	}
	a := federation.Run(federation.Config{Drivers: 2, Seed: 31, Faults: plan()})
	b := federation.Run(federation.Config{Drivers: 2, Seed: 31, Faults: plan()})
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("fingerprint diverged: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if a.AgentCrashes != 2 {
		t.Fatalf("agentCrashes=%d, want 2", a.AgentCrashes)
	}
}
