package federation

import (
	"fmt"
	"math"
	"testing"
)

// The agent fuzz input is one header byte and then four bytes per step.
//
//	header: bits 0-1 capacity-1; bits 2-3 the RESYNC broadcast list
//	        (none, driver:0, driver:1, both).
//	step:   op    bits 0-2 PROPOSE, COMMIT, ABORT, RELEASE, RESYNC_CLAIM,
//	              RESYNC_END, crash, restart; bit 3 the sending driver;
//	              bit 4 Bound.
//	        dt    time since the previous step: dt ms below 128, else
//	              (dt-128)×50 ms.
//	        claim bit 4 the claim's driver, bits 0-3 its sequence.
//	        arg   bits 0-1 Slots, bits 2-3 Inc, bits 4-7 Task.
const maxFuzzSteps = 64

var (
	fuzzDrivers = [4][]string{nil, {"driver:0"}, {"driver:1"}, {"driver:0", "driver:1"}}
	fuzzTypes   = [6]MsgType{Propose, Commit, Abort, Release, ResyncClaim, ResyncEnd}
)

func decodeAgentScenario(data []byte) AcceptScenario {
	var s AcceptScenario
	if len(data) == 0 {
		return s
	}
	s.Capacity = 1 + int(data[0]&3)
	s.Drivers = fuzzDrivers[data[0]>>2&3]
	t := 0.0
	for b := data[1:]; len(b) >= 4 && len(s.Steps) < maxFuzzSteps; b = b[4:] {
		op, dt, claim, arg := b[0], b[1], b[2], b[3]
		if dt < 128 {
			t += float64(dt) * 0.001
		} else {
			t += float64(dt-128) * 0.05
		}
		st := AcceptStep{At: t}
		switch k := op & 7; k {
		case 6:
			st.Op = "crash"
		case 7:
			st.Op = "restart"
		default:
			st.From = fmt.Sprintf("driver:%d", op>>3&1)
			st.Msg = Message{
				Type:  fuzzTypes[k],
				Claim: ClaimID{Driver: int(claim >> 4 & 1), Seq: uint64(claim & 15)},
				Slots: int(arg & 3),
				Inc:   uint64(arg >> 2 & 3),
				Task:  int(arg >> 4),
				Bound: op>>4&1 == 1,
			}
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// encodeAgentScenario is decodeAgentScenario's inverse up to the field
// widths, for seeding the corpus with the acceptance battery.
func encodeAgentScenario(s AcceptScenario) []byte {
	capacity := s.Capacity
	if capacity == 0 {
		capacity = 2
	}
	drivers := 0
	for _, d := range s.Drivers {
		switch d {
		case "driver:0":
			drivers |= 1
		case "driver:1":
			drivers |= 2
		}
	}
	out := []byte{byte(capacity-1)&3 | byte(drivers)<<2}
	prev := 0.0
	for _, st := range s.Steps {
		var op byte
		switch st.Op {
		case "crash":
			op = 6
		case "restart":
			op = 7
		default:
			for k, mt := range fuzzTypes {
				if mt == st.Msg.Type {
					op = byte(k)
				}
			}
			if st.From == "driver:1" {
				op |= 1 << 3
			}
			if st.Msg.Bound {
				op |= 1 << 4
			}
		}
		var dt byte
		if d := st.At - prev; d < 0.1275 {
			dt = byte(math.Round(d / 0.001))
		} else {
			dt = byte(math.Min(128+math.Round(d/0.05), 255))
		}
		prev = st.At
		m := st.Msg
		claim := byte(m.Claim.Driver&1)<<4 | byte(m.Claim.Seq&15)
		arg := byte(m.Slots&3) | byte(m.Inc&3)<<2 | byte(m.Task&15)<<4
		out = append(out, op, dt, claim, arg)
	}
	return out
}

// fuzzAgentRun plays the scenario and returns the replies every driver
// endpoint saw, in global delivery order, and the checks that failed.
func fuzzAgentRun(s AcceptScenario) (trace, fails []string) {
	r := newAcceptRun(s)
	a, p := r.agent, r.plane

	// An ACCEPT is a breach if its claim ID was tombstoned, under the
	// incarnation the ACCEPT carries, before the agent handled the message
	// that produced it. The plane is fault-free with one latency, so the
	// k-th message sent is the k-th delivered (dropped ones included):
	// sentIn[k] is the agent handler call that sent message k, or -1, and
	// deadAt the handler call before which a tombstone was first seen.
	type tombKey struct {
		id  ClaimID
		inc uint64
	}
	calls := 0
	deadAt := map[tombKey]int{}
	var sentIn []int
	mark := func(call int) {
		for len(sentIn) < p.Sent {
			sentIn = append(sentIn, call)
		}
	}
	agentHandle := p.handlers[a.Name]
	p.Handle(a.Name, func(from string, m Message) {
		mark(-1)
		calls++
		for id := range a.tombstones {
			if k := (tombKey{id, a.inc}); deadAt[k] == 0 {
				deadAt[k] = calls
			}
		}
		agentHandle(from, m)
		mark(calls)
	})
	for _, ep := range r.eps {
		ep, record := ep, p.handlers[ep]
		p.Handle(ep, func(from string, m Message) {
			record(from, m)
			mark(-1)
			k := p.Delivered + p.Dropped - 1
			trace = append(trace, fmt.Sprintf("%s %s %s inc=%d", ep, m.Type, m.Claim, m.Inc))
			if at := deadAt[tombKey{m.Claim, m.Inc}]; m.Type == Accept && sentIn[k] >= 0 && at > 0 && at <= sentIn[k] {
				fails = append(fails, fmt.Sprintf("ACCEPT %s to %s under incarnation %d after the ID was tombstoned", m.Claim, ep, m.Inc))
			}
		})
	}
	r.eng.Run()

	fails = append(fails, r.fails...)
	if a.Reserved() < 0 || a.Reserved() > a.Capacity {
		fails = append(fails, fmt.Sprintf("reserved %d outside [0, %d]", a.Reserved(), a.Capacity))
	}
	if a.MaxReserved > a.Capacity {
		fails = append(fails, fmt.Sprintf("MaxReserved %d exceeds capacity %d", a.MaxReserved, a.Capacity))
	}
	trace = append(trace, fmt.Sprintf("end reserved=%d live=%d digest=%x", a.Reserved(), a.LiveClaims(), a.Digest()))
	return trace, fails
}

// FuzzAgent drives one agent through scripted PROPOSE, COMMIT, ABORT,
// RELEASE and RESYNC answers and through crashes and restarts, and checks
// that reservations stay within capacity, that no tombstoned claim ID is
// accepted again in the same incarnation, and that a second run replies
// the same.
func FuzzAgent(f *testing.F) {
	for _, s := range AcceptanceScenarios() {
		f.Add(encodeAgentScenario(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeAgentScenario(data)
		trace, fails := fuzzAgentRun(s)
		for _, msg := range fails {
			t.Error(msg)
		}
		again, _ := fuzzAgentRun(s)
		if fmt.Sprint(again) != fmt.Sprint(trace) {
			t.Fatalf("second run replied differently:\n%v\n%v", trace, again)
		}
	})
}

// TestAgentScenarioCodec checks that every acceptance scenario survives
// the fuzz encoding with its replies intact, so the seed corpus starts
// from the battery's interleavings and not from mangled ones.
func TestAgentScenarioCodec(t *testing.T) {
	for _, s := range AcceptanceScenarios() {
		d := decodeAgentScenario(encodeAgentScenario(s))
		d.Replies, d.Reserved, d.Live = s.Replies, s.Reserved, s.Live
		d.Expiries, d.Rejects, d.Commits = s.Expiries, s.Rejects, s.Commits
		for _, f := range RunAcceptScenario(d) {
			t.Errorf("%s after encoding: %s", s.Name, f)
		}
	}
}
