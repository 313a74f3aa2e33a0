// Package bloom implements the Bloom filters attached to SSTables.
//
// The filter uses double hashing over a 64-bit FNV-style hash, the standard
// technique from "Less Hashing, Same Performance" (Kirsch & Mitzenmacher),
// with k probes derived from the configured bits-per-key. At the paper's
// default of 10 bits per key the false-positive rate is below 1%, which the
// reward model treats as negligible.
package bloom

import (
	"encoding/binary"
	"math"
)

// Filter is an immutable Bloom filter over a set of keys.
type Filter []byte

// NumProbes derives the optimal probe count for a bits-per-key budget.
func NumProbes(bitsPerKey int) int {
	k := int(float64(bitsPerKey) * math.Ln2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return k
}

// Build constructs a filter for the keys whose Hash64 values are hashes,
// using bitsPerKey bits per key. A table writer records each key's hash as
// the key goes by instead of keeping a copy of every key. The returned
// filter's final byte stores the probe count so readers need no
// out-of-band configuration.
func Build(hashes []uint64, bitsPerKey int) Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := NumProbes(bitsPerKey)
	nBits := len(hashes) * bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	nBits = nBytes * 8
	filter := make(Filter, nBytes+1)
	filter[nBytes] = byte(k)
	for _, h := range hashes {
		delta := h>>33 | h<<31
		for i := 0; i < k; i++ {
			bit := h % uint64(nBits)
			filter[bit/8] |= 1 << (bit % 8)
			h += delta
		}
	}
	return filter
}

// MayContain reports whether key may be in the set. False positives are
// possible; false negatives are not.
func (f Filter) MayContain(key []byte) bool {
	if len(f) < 2 {
		return false
	}
	nBits := uint64((len(f) - 1) * 8)
	k := int(f[len(f)-1])
	if k > 30 || k < 1 {
		// Corrupt filter: fail open so correctness is preserved.
		return true
	}
	h := hash64(key)
	delta := h>>33 | h<<31
	for i := 0; i < k; i++ {
		bit := h % nBits
		if f[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}

// FalsePositiveRate estimates the theoretical FPR for a bits-per-key budget.
func FalsePositiveRate(bitsPerKey int) float64 {
	if bitsPerKey <= 0 {
		return 1
	}
	k := float64(NumProbes(bitsPerKey))
	return math.Pow(1-math.Exp(-k/float64(bitsPerKey)), k)
}

// hash64 is a 64-bit FNV-1a hash with an avalanche finalizer. It is fast,
// allocation-free, and good enough for Bloom probing.
func hash64(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for len(b) >= 8 {
		h = (h ^ binary.LittleEndian.Uint64(b)) * prime64
		b = b[8:]
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	// Finalizer from MurmurHash3 to improve bit diffusion.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Hash64 exposes the filter's hash for other packages (sharding, sketches)
// so the whole system uses one well-tested hash function.
func Hash64(b []byte) uint64 { return hash64(b) }
