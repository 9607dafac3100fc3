package faults_test

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"rupam/internal/chaos"
	"rupam/internal/cluster"
	"rupam/internal/faults"
	"rupam/internal/simx"
)

// FuzzScheduleValidate decodes bytes into fault plans of any kinds and
// field values and checks Schedule.Validate: it never panics, a plan it
// accepts has only finite fields, its verdict does not depend on event
// order, and deleting any one event from an accepted plan leaves the plan
// accepted (so a failing plan can be shrunk one event at a time). The
// seed corpus holds the chaos soaks' generated plans and a NaN notice
// time.
func FuzzScheduleValidate(f *testing.F) {
	clu := cluster.New(simx.NewEngine())
	cluster.NewHydra(clu)
	for _, gen := range []faults.GenConfig{
		chaos.DefaultGen(), chaos.TenancyGen(), chaos.FederationGen(), chaos.StreamingGen(),
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			f.Add(encodePlan(faults.RandomSchedule(seed, clu.NodeNames(), gen).Events))
		}
	}
	f.Add(encodePlan([]faults.Event{{Kind: faults.SpotPreempt, Node: "hulk1", At: math.NaN(), Duration: 5}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := decodePlan(data)
		err := (&faults.Schedule{Events: evs}).Validate()
		for _, order := range [][]faults.Event{reversed(evs), rotated(evs)} {
			if err2 := (&faults.Schedule{Events: order}).Validate(); (err == nil) != (err2 == nil) {
				t.Fatalf("verdict depends on event order: %v, reordered %v\n%v", err, err2, evs)
			}
		}
		if err != nil {
			return
		}
		for _, e := range evs {
			for _, x := range []float64{e.At, e.Duration, e.Factor, e.Delay} {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("accepted a non-finite event %+v", e)
				}
			}
		}
		for i := range evs {
			if err := (&faults.Schedule{Events: slices.Delete(slices.Clone(evs), i, i+1)}).Validate(); err != nil {
				t.Fatalf("accepted plan rejected without event %d (%v): %v\n%v", i, evs[i], err, evs)
			}
		}
	})
}

// maxFuzzEvents bounds a decoded plan; Validate compares events pairwise
// and the deletion check validates every one-shorter plan.
const maxFuzzEvents = 32

// Each encoded event is a kind byte (read as int8, so unknown kinds are
// reachable), a length-prefixed node name, and At, Duration, Factor and
// Delay as IEEE 754 bits.
func encodePlan(evs []faults.Event) []byte {
	var b []byte
	for _, e := range evs {
		b = append(b, byte(int8(e.Kind)), byte(len(e.Node)))
		b = append(b, e.Node...)
		for _, x := range []float64{e.At, e.Duration, e.Factor, e.Delay} {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
	}
	return b
}

// decodePlan reads events until the data runs out, dropping a truncated
// last event.
func decodePlan(b []byte) []faults.Event {
	var evs []faults.Event
	for len(b) >= 2 && len(evs) < maxFuzzEvents {
		n := int(b[1])
		if len(b) < 2+n+32 {
			break
		}
		e := faults.Event{Kind: faults.Kind(int8(b[0])), Node: string(b[2 : 2+n])}
		b = b[2+n:]
		for _, x := range []*float64{&e.At, &e.Duration, &e.Factor, &e.Delay} {
			*x = math.Float64frombits(binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
		evs = append(evs, e)
	}
	return evs
}

func reversed(evs []faults.Event) []faults.Event {
	out := slices.Clone(evs)
	slices.Reverse(out)
	return out
}

func rotated(evs []faults.Event) []faults.Event {
	if len(evs) == 0 {
		return nil
	}
	return append(slices.Clone(evs[1:]), evs[0])
}
