package streaming

import (
	"rupam/internal/netsim"
)

// maxCohorts bounds the FIFO cohort list per queue; beyond it the two
// oldest cohorts merge (count-weighted birth time), keeping memory and
// per-tick work bounded under deep backlogs without losing conservation.
const maxCohorts = 1024

// wireBudget is the byte budget of a channel's long-lived netsim flow —
// large enough that the flow never completes on its own; the runtime
// cancels or redirects it instead. This is exactly the "flow that never
// completes" shape the netsim regression test pins down.
const wireBudget = 1e15

// shipSlack caps how many records' worth of wire credit a channel may
// bank beyond what is queued: the wire can run ahead of delivery by a
// bounded burst, not indefinitely.
const shipSlack = 64

// cohort is a batch of records sharing a birth time. Counts are float64
// so selectivity composition and rate integration stay exact.
type cohort struct {
	count float64
	born  float64
}

// recQueue is a FIFO of cohorts with an O(1) total. The live cohorts are
// cohorts[head:]: pops advance head instead of re-slicing, so the backing
// array keeps its capacity, an emptied queue rewinds to the start, and
// push compacts the live suffix to the front before it would otherwise
// grow.
type recQueue struct {
	cohorts []cohort
	head    int
	count   float64
}

func (q *recQueue) push(count, born float64) {
	if count <= 0 {
		return
	}
	q.count += count
	if n := len(q.cohorts); n > 0 && q.cohorts[n-1].born == born {
		q.cohorts[n-1].count += count
		return
	}
	if len(q.cohorts) == cap(q.cohorts) && q.head > 0 {
		q.cohorts = q.cohorts[:copy(q.cohorts, q.cohorts[q.head:])]
		q.head = 0
	}
	q.cohorts = append(q.cohorts, cohort{count: count, born: born})
	if len(q.cohorts)-q.head > maxCohorts {
		// Merge the two oldest cohorts, preserving total count and the
		// count-weighted mean birth time.
		a, b := q.cohorts[q.head], &q.cohorts[q.head+1]
		b.born = (a.born*a.count + b.born*b.count) / (a.count + b.count)
		b.count = a.count + b.count
		q.head++
	}
}

// pop removes up to n records from the front and returns the consumed
// cohorts (the last one possibly split), written over buf from its start.
func (q *recQueue) pop(n float64, buf []cohort) []cohort {
	out := buf[:0]
	if n <= 0 || q.count <= 0 {
		return out
	}
	if n > q.count {
		n = q.count
	}
	for n > 0 && q.head < len(q.cohorts) {
		c := &q.cohorts[q.head]
		if c.count <= n+recEps {
			out = append(out, *c)
			n -= c.count
			q.count -= c.count
			q.head++
			if n <= recEps {
				n = 0
			}
			continue
		}
		out = append(out, cohort{count: n, born: c.born})
		c.count -= n
		q.count -= n
		n = 0
	}
	if q.count < recEps {
		q.count = 0
		q.head = len(q.cohorts)
	}
	if q.head == len(q.cohorts) {
		q.cohorts, q.head = q.cohorts[:0], 0
	}
	return out
}

// recEps absorbs float64 residue in record counts.
const recEps = 1e-9

// channel is one topology edge at runtime: a bounded FIFO of records
// emitted by the upstream operator, of which the `arrived` prefix has
// crossed the wire and is consumable downstream. The wire is a long-lived
// netsim flow between the two operators' current hosts, open only while
// there is something left to ship, so streaming traffic contends with
// every other flow on the NICs and idle channels consume nothing.
type channel struct {
	from, to       int
	capacity       float64 // records
	bytesPerRecord float64 // the upstream operator's record size

	q       recQueue
	arrived float64 // prefix of q.count that has crossed the wire

	wire          *netsim.Flow
	lastRemaining float64
	shipCredit    float64 // wire bytes banked but not yet converted to arrivals

	// paused stops the upstream operator from emitting into this channel
	// (free() == 0) while its consumer drains for a migration.
	paused bool

	// Accounting for the invariant battery.
	emitted   float64 // records pushed by the upstream operator
	delivered float64 // records consumed by the downstream operator
	maxQueue  float64
}

// free returns how many records the upstream operator may emit into the
// channel right now — the credit that, at zero, backpressures the sender.
func (ch *channel) free() float64 {
	if ch.paused {
		return 0
	}
	f := ch.capacity - ch.q.count
	if f < 0 {
		return 0
	}
	return f
}

// push enqueues records emitted by the upstream operator.
func (ch *channel) push(count, born float64) {
	if count <= 0 {
		return
	}
	ch.q.push(count, born)
	ch.emitted += count
	if ch.q.count > ch.maxQueue {
		ch.maxQueue = ch.q.count
	}
}

// unarrived returns the records queued but not yet across the wire.
func (ch *channel) unarrived() float64 {
	u := ch.q.count - ch.arrived
	if u < 0 {
		return 0
	}
	return u
}

// settleWire folds the wire's progress since the last tick into arrival
// credit and advances the arrived prefix. Call after Network.Sync.
func (ch *channel) settleWire() {
	if ch.wire != nil {
		ch.shipCredit += ch.lastRemaining - ch.wire.Remaining()
		ch.lastRemaining = ch.wire.Remaining()
	}
	if u := ch.unarrived(); u > 0 && ch.shipCredit > 0 {
		n := ch.shipCredit / ch.bytesPerRecord
		if n > u {
			n = u
		}
		ch.arrived += n
		ch.shipCredit -= n * ch.bytesPerRecord
	}
	// The wire may run ahead of queued records by a bounded burst only.
	if maxBank := shipSlack * ch.bytesPerRecord; ch.shipCredit > maxBank {
		ch.shipCredit = maxBank
	}
}

// consume removes up to n arrived records for the downstream operator
// and returns the consumed cohorts, written over buf from its start.
func (ch *channel) consume(n float64, buf []cohort) []cohort {
	if n > ch.arrived {
		n = ch.arrived
	}
	out := ch.q.pop(n, buf)
	var got float64
	for _, c := range out {
		got += c.count
	}
	ch.arrived -= got
	if ch.arrived < recEps {
		ch.arrived = 0
	}
	ch.delivered += got
	return out
}
