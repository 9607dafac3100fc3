package digest

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"testing"
)

// TestMatchesStdlib feeds random values to a Hash and to hash/fnv
// (through binary.Write and io.WriteString) and requires equal sums.
func TestMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		h, ref := New(), fnv.New64a()
		for i := rng.Intn(12); i >= 0; i-- {
			switch rng.Intn(5) {
			case 0:
				v := rng.Uint64()
				h.U64(v)
				binary.Write(ref, binary.LittleEndian, v)
			case 1:
				x := rng.Intn(1<<20) - 1<<19
				h.Int(x)
				binary.Write(ref, binary.LittleEndian, int64(x))
			case 2:
				x := rng.NormFloat64() * 1e6
				h.F64(x)
				binary.Write(ref, binary.LittleEndian, math.Float64bits(x))
			case 3:
				b := make([]byte, rng.Intn(9))
				rng.Read(b)
				h.Str(string(b))
				io.WriteString(ref, string(b))
			case 4:
				b := make([]byte, rng.Intn(300))
				rng.Read(b)
				h.Bytes(b)
				ref.Write(b)
			}
		}
		if h.Sum64() != ref.Sum64() {
			t.Fatalf("trial %d: sum %016x, hash/fnv %016x", trial, h.Sum64(), ref.Sum64())
		}
	}
	if New().Sum64() != fnv.New64a().Sum64() {
		t.Fatal("empty hash differs from hash/fnv")
	}
}

func TestNoAllocs(t *testing.T) {
	line := []byte("0a1b2c3d {\"seq\":1}\n")
	allocs := testing.AllocsPerRun(100, func() {
		h := New()
		h.U64(7)
		h.Int(-3)
		h.F64(1.5)
		h.Str("thor1")
		h.Bytes(line)
		_ = h.Sum64()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per hash, want 0", allocs)
	}
}
