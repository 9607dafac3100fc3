package main

import (
	"fmt"
	"testing"

	"rupam/internal/faults"
)

// FuzzEventPlan drives the -preempt and -agent-crash parser with
// arbitrary values. It must not panic; a rejected value adds no event;
// an accepted value adds exactly one event, that event passes
// faults.Event.Validate, and formatting it as NODE:AT:DURATION (as
// String does) parses back to the same event.
func FuzzEventPlan(f *testing.F) {
	for _, s := range []string{
		"thor1:10:2.5", "hulk2:0:3", "thor1:10", ":10:2", "thor1:-1:2", "thor1:10:0",
		"hulk1:NaN:5", "hulk1:+Inf:5", "hulk1:5:Inf", "hulk2:1:2:3", "hulk2:-0:1e-300",
		"stack1:0x1p-3:1e308", "thor1: 1:2",
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, s string, agentCrash bool) {
		newPlan := func() *eventPlan {
			if agentCrash {
				return &eventPlan{kind: faults.AgentCrash, dur: "DOWNTIME", when: "crash time", length: "downtime"}
			}
			return &eventPlan{kind: faults.SpotPreempt, dur: "GRACE", when: "notice time", length: "grace window"}
		}
		p := newPlan()
		if err := p.Set(s); err != nil {
			if len(p.events) != 0 {
				t.Fatalf("rejected %q (%v) but added %v", s, err, p.events)
			}
			return
		}
		if len(p.events) != 1 {
			t.Fatalf("accepted %q as %d events, want 1", s, len(p.events))
		}
		ev := p.events[0]
		if err := ev.Validate(); err != nil {
			t.Fatalf("accepted %q as an invalid event %+v: %v", s, ev, err)
		}
		again := newPlan()
		formatted := fmt.Sprintf("%s:%g:%g", ev.Node, ev.At, ev.Duration)
		if err := again.Set(formatted); err != nil {
			t.Fatalf("accepted %q as %+v, but its formatting %q is rejected: %v", s, ev, formatted, err)
		}
		if again.events[0] != ev {
			t.Fatalf("accepted %q as %+v, but its formatting %q parses to %+v", s, ev, formatted, again.events[0])
		}
	})
}
