package cluster

// The instance market prices the Hydra hardware classes the way a public
// cloud would sell them: every class is offered on-demand (pay full rate,
// never reclaimed) and as a spot instance (steep discount, but the
// provider may reclaim it after a short notice). Spot discounts and
// preemption hazards are correlated — the deeper the discount, the hotter
// the reclamation rate — which is what makes the autoscaler's spot-vs-
// on-demand choice a real trade-off rather than a dominance relation.
//
// Prices are $/hour and hazards are expected preemptions/hour. Hazards
// are accelerated relative to real clouds (where reclamation rates are
// per-day) so that simulation horizons of minutes still see preemptions;
// the *relative* ordering across classes is what the experiments depend
// on, not the absolute magnitude.

// Billing distinguishes how an instance is paid for.
type Billing int

const (
	// OnDemand instances cost full price and are never preempted.
	OnDemand Billing = iota
	// Spot instances are discounted and carry a preemption hazard.
	Spot
)

// String returns the billing label used in reports and traces.
func (b Billing) String() string {
	if b == Spot {
		return "spot"
	}
	return "on-demand"
}

// InstanceOffer is one purchasable flavor of a hardware class.
type InstanceOffer struct {
	// Class matches NodeSpec.Class ("thor", "hulk", "stack", ...).
	Class   string
	Billing Billing
	// PricePerHour is the $/hour rate while the instance is held.
	PricePerHour float64
	// PreemptHazard is the expected preemptions/hour while held; zero for
	// on-demand offers.
	PreemptHazard float64
	// GPU marks the offer as the accelerator flavor of its class (the
	// SparkCL-style GPU spot pool); priced above the plain CPU offer
	// because the accelerator is bundled.
	GPU bool
}

// Market is the set of offers the elastic substrate can buy from.
type Market struct {
	offers []InstanceOffer
}

// NewMarket builds a market from explicit offers.
func NewMarket(offers ...InstanceOffer) *Market {
	return &Market{offers: append([]InstanceOffer(nil), offers...)}
}

// DefaultMarket prices the Hydra classes. On-demand rates scale roughly
// with core count × frequency (hulk's 32 slow cores and stack's GPU land
// between thor and hulk); spot discounts deepen — and hazards rise — for
// the big instances, mirroring how clouds price capacity that is hard to
// keep busy. Stack's spot flavor is the GPU spot pool: discounted less
// than hulk because accelerator capacity is scarcer, but still the only
// discounted way to get a GPU.
func DefaultMarket() *Market {
	return NewMarket(
		InstanceOffer{Class: "thor", Billing: OnDemand, PricePerHour: 0.40},
		InstanceOffer{Class: "thor", Billing: Spot, PricePerHour: 0.16, PreemptHazard: 12},
		InstanceOffer{Class: "hulk", Billing: OnDemand, PricePerHour: 1.20},
		InstanceOffer{Class: "hulk", Billing: Spot, PricePerHour: 0.36, PreemptHazard: 24},
		InstanceOffer{Class: "stack", Billing: OnDemand, PricePerHour: 0.90, GPU: true},
		InstanceOffer{Class: "stack", Billing: Spot, PricePerHour: 0.36, PreemptHazard: 18, GPU: true},
	)
}

// Offer returns the class's offer under the given billing, or a zero
// offer with ok=false when the market does not sell that combination.
func (m *Market) Offer(class string, billing Billing) (InstanceOffer, bool) {
	for _, o := range m.offers {
		if o.Class == class && o.Billing == billing {
			return o, true
		}
	}
	return InstanceOffer{}, false
}

// Price returns the $/hour rate for the class under the given billing.
// Unlisted combinations price at the on-demand rate if one exists, else 0
// (free capacity never distorts a cost comparison upward).
func (m *Market) Price(class string, billing Billing) float64 {
	if o, ok := m.Offer(class, billing); ok {
		return o.PricePerHour
	}
	if o, ok := m.Offer(class, OnDemand); ok {
		return o.PricePerHour
	}
	return 0
}

// Hazard returns the class's spot preemption hazard (preemptions/hour);
// zero when the class has no spot offer.
func (m *Market) Hazard(class string) float64 {
	if o, ok := m.Offer(class, Spot); ok {
		return o.PreemptHazard
	}
	return 0
}
