package federation

import (
	"testing"

	"rupam/internal/faults"
	"rupam/internal/simx"
)

// raceEnabled reports a -race build (race_test.go). Allocation counts
// are not checked under the race detector, whose instrumentation may
// allocate.
var raceEnabled bool

// TestPlaneSendAllocatesNothing: once the plane holds a free delivery
// record, sending a message and delivering it allocates nothing.
func TestPlaneSendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	eng := simx.NewEngine()
	plane := NewPlane(eng, 1)
	got := 0
	plane.Handle("driver:0", func(from string, m Message) { got++ })
	m := Message{Type: Accept, Claim: ClaimID{Driver: 0, Seq: 1}}
	n := testing.AllocsPerRun(100, func() {
		plane.Send("node1", "driver:0", m)
		eng.Run()
	})
	if n != 0 {
		t.Fatalf("Send and deliver allocate %v times per message, want 0", n)
	}
	if got != 101 {
		t.Fatalf("%d messages delivered, want 101", got)
	}
}

// TestResolvedVerdictAllocatesNothing: a verdict for a claim the driver
// has already resolved (a duplicate or a late reply) goes through the
// driver's dispatch loop and is dropped without allocating.
func TestResolvedVerdictAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not checked under -race")
	}
	eng := simx.NewEngine()
	plane := NewPlane(eng, 1)
	d := NewDriver(eng, plane, 0, map[string]int{"node1": 4}, func(v string) {
		t.Errorf("violation: %s", v)
	})
	m := Message{Type: CommitAck, Claim: ClaimID{Driver: 0, Seq: 9}}
	n := testing.AllocsPerRun(100, func() {
		plane.Send("node1", d.Addr, m)
		eng.Run()
	})
	if n != 0 {
		t.Fatalf("a resolved claim's verdict allocates %v times, want 0", n)
	}
	// Every verdict went through the dispatch loop, on one reused record.
	if plane.Delivered != 101 || len(d.actions) != 1 {
		t.Fatalf("delivered %d verdicts, %d free dispatch records; want 101 and 1",
			plane.Delivered, len(d.actions))
	}
}

// TestDupWindowDeliversBothCopies: under a MsgDup window that hits every
// message, each message is delivered twice, also when a handler sends
// from inside a delivery and so reuses the record that delivery freed,
// and the plane never holds more delivery records than the peak number of
// messages in flight.
func TestDupWindowDeliversBothCopies(t *testing.T) {
	eng := simx.NewEngine()
	plane := NewPlane(eng, 1)
	plane.Install(&faults.Schedule{Events: []faults.Event{
		{Kind: faults.MsgDup, At: 0, Duration: 100, Factor: 1},
	}})
	inflight, peak := 0, 0
	send := func(from, to string, m Message) {
		plane.Send(from, to, m)
		inflight += 2
		if inflight > peak {
			peak = inflight
		}
	}
	atNode := map[ClaimID]int{}
	atDriver := map[ClaimID]int{}
	plane.Handle("node1", func(from string, m Message) {
		inflight--
		atNode[m.Claim]++
		send("node1", from, Message{Type: AbortAck, Claim: m.Claim})
	})
	plane.Handle("driver:0", func(from string, m Message) {
		inflight--
		atDriver[m.Claim]++
	})

	const perRound = 8
	for round := 0; round < 5; round++ {
		for i := 0; i < perRound; i++ {
			send("driver:0", "node1", Message{Type: Abort, Claim: ClaimID{Seq: uint64(round*perRound + i)}})
		}
		eng.Run()
		if inflight != 0 {
			t.Fatalf("round %d: %d messages never delivered", round, inflight)
		}
		if len(plane.free) > peak {
			t.Fatalf("round %d: %d free delivery records, more than the peak of %d in flight",
				round, len(plane.free), peak)
		}
	}
	for seq := uint64(0); seq < 5*perRound; seq++ {
		id := ClaimID{Seq: seq}
		// Two copies reach the node; each answer is duplicated again.
		if atNode[id] != 2 || atDriver[id] != 4 {
			t.Fatalf("claim %s: node saw %d copies, driver %d answers; want 2 and 4", id, atNode[id], atDriver[id])
		}
	}
	if plane.Duped != plane.Sent {
		t.Fatalf("%d of %d sends duplicated, want all", plane.Duped, plane.Sent)
	}
}
