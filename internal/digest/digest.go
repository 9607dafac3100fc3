// Package digest is the allocation-free FNV-64a hash behind the run
// fingerprints and the WAL's stream digest. Numbers are written as
// little-endian 8-byte words and strings and byte slices as their raw
// bytes, so a Hash fed a sequence of values sums to what hash/fnv sums
// over the same values written with binary.Write, io.WriteString and
// Write.
package digest

import (
	"fmt"
	"math"
)

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// Hash is a running FNV-64a state; start one with New.
type Hash struct{ sum uint64 }

// New returns the empty hash.
func New() Hash { return Hash{offset64} }

// U64 writes v as a little-endian uint64.
func (h *Hash) U64(v uint64) {
	sum := h.sum // a local keeps the multiply chain in a register
	for i := 0; i < 8; i++ {
		sum ^= v & 0xff
		sum *= prime64
		v >>= 8
	}
	h.sum = sum
}

// Int writes x as a little-endian int64.
func (h *Hash) Int(x int) { h.U64(uint64(int64(x))) }

// F64 writes x's IEEE 754 bits as a little-endian uint64.
func (h *Hash) F64(x float64) { h.U64(math.Float64bits(x)) }

// Str writes s's raw bytes, with no length prefix.
func (h *Hash) Str(s string) { h.sum = raw(h.sum, s) }

// Bytes writes b's raw bytes, with no length prefix.
func (h *Hash) Bytes(b []byte) { h.sum = raw(h.sum, b) }

func raw[T string | []byte](sum uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		sum ^= uint64(b[i])
		sum *= prime64
	}
	return sum
}

// Sum64 returns the hash of everything written so far.
func (h Hash) Sum64() uint64 { return h.sum }

// Hex returns Sum64 as 16 lowercase hex digits, the fingerprint format.
func (h Hash) Hex() string { return fmt.Sprintf("%016x", h.sum) }
