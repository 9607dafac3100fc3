package federation

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestClaimIDStringRoundTrip: String writes the WAL key form byte for
// byte as fmt.Sprintf("d%d:%d") does, and parseClaimID reads it back.
func TestClaimIDStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := []ClaimID{
		{}, {Driver: 0, Seq: math.MaxUint64}, {Driver: math.MaxInt, Seq: math.MaxUint64},
		{Driver: 3, Seq: 1}, {Driver: 12, Seq: 1 << 63},
	}
	for i := 0; i < 1000; i++ {
		ids = append(ids, ClaimID{Driver: rng.Intn(1 << uint(rng.Intn(31))), Seq: rng.Uint64() >> uint(rng.Intn(64))})
	}
	for _, id := range ids {
		s := id.String()
		if want := fmt.Sprintf("d%d:%d", id.Driver, id.Seq); s != want {
			t.Fatalf("%#v renders %q, want %q", id, s, want)
		}
		if back, ok := parseClaimID(s); !ok || back != id {
			t.Fatalf("parseClaimID(%q) = %#v, %v; want %#v", s, back, ok, id)
		}
	}
	if s := (ClaimID{Driver: -4, Seq: 7}).String(); s != "d-4:7" {
		t.Fatalf("a negative driver renders %q, want %q", s, "d-4:7")
	}
}
