package federation

import (
	"testing"

	"rupam/internal/simx"
	"rupam/internal/task"
	"rupam/internal/wal"
)

// TestDoubleReleaseKeepsRetransmitCycleAlive pins the fix for a slot
// leak the agent-churn soak surfaced (seed 7): releaseClaim re-entered
// on a claim already in csReleasing — the attempt ends, then app
// teardown or the stale sweep releases it again — used to cancel the
// in-flight cycle's retransmit timer before hitting the terminal-state
// early return. If the RELEASEs sent so far were all dropped (a
// msg-drop window), nothing ever re-armed the cycle: the claim stayed
// live forever and the agent's reservation leaked. A repeat release
// must leave the running cycle's timer alone.
func TestDoubleReleaseKeepsRetransmitCycleAlive(t *testing.T) {
	eng := simx.NewEngine()
	plane := NewPlane(eng, 1)
	d := NewDriver(eng, plane, 0, map[string]int{"node1": 4}, func(v string) {
		t.Errorf("violation: %s", v)
	})

	// A fake agent that swallows every message until the drop window
	// "ends", then acks RELEASEs.
	acking := false
	acks := 0
	plane.Handle("node1", func(from string, m Message) {
		if !acking || m.Type != Release {
			return
		}
		acks++
		plane.Send("node1", from, Message{Type: ReleaseAck, Claim: m.Claim})
	})

	a := &fedApp{
		wlog:     wal.New(nil, wal.Options{Clock: eng.Now}),
		taskByID: make(map[int]*task.Task),
	}
	c := d.newClaim(ClaimID{Driver: 0, Seq: 1}, a, &task.Task{ID: 7}, "node1", 1)
	c.state = csBound
	d.claims[c.id] = c
	d.inflight[c.node]++

	// First release puts the claim on its RELEASE cycle (all sends
	// dropped for now); the second lands mid-cycle and must not kill it.
	eng.At(0, func() { d.releaseClaim(c) })
	eng.At(0.6, func() { d.releaseClaim(c) })
	eng.At(1.0, func() { acking = true })
	eng.RunUntil(60)

	if n := d.LiveClaims(); n != 0 {
		t.Fatalf("%d claims still live: the repeat release killed the retransmit cycle", n)
	}
	if acks == 0 {
		t.Fatal("the agent never saw a RELEASE after the drop window")
	}
}

// TestDoubleAbortKeepsRetransmitCycleAlive is the same guarantee for
// the ABORT cycle (recovery paths can abort a claim more than once).
func TestDoubleAbortKeepsRetransmitCycleAlive(t *testing.T) {
	eng := simx.NewEngine()
	plane := NewPlane(eng, 1)
	d := NewDriver(eng, plane, 0, map[string]int{"node1": 4}, func(v string) {
		t.Errorf("violation: %s", v)
	})

	acking := false
	acks := 0
	plane.Handle("node1", func(from string, m Message) {
		if !acking || m.Type != Abort {
			return
		}
		acks++
		plane.Send("node1", from, Message{Type: AbortAck, Claim: m.Claim})
	})

	a := &fedApp{
		wlog:     wal.New(nil, wal.Options{Clock: eng.Now}),
		taskByID: make(map[int]*task.Task),
	}
	c := d.newClaim(ClaimID{Driver: 0, Seq: 1}, a, &task.Task{ID: 9}, "node1", 1)
	c.state = csCommitting
	d.claims[c.id] = c
	d.inflight[c.node]++

	eng.At(0, func() { d.abortClaim(c) })
	eng.At(0.6, func() { d.abortClaim(c) })
	eng.At(1.0, func() { acking = true })
	eng.RunUntil(60)

	if n := d.LiveClaims(); n != 0 {
		t.Fatalf("%d claims still live: the repeat abort killed the retransmit cycle", n)
	}
	if acks == 0 {
		t.Fatal("the agent never saw an ABORT after the drop window")
	}
}
