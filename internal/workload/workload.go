// Package workload generates the paper's evaluation workloads: Zipfian
// key-access patterns over a fixed key space, static operation mixes
// (Point Lookup / Short Scan / Balanced / Long Scan, §5.2) and the dynamic
// phase schedule A→F of Table 3 (§5.3). Generators are deterministic under
// a seed so every cache strategy sees the identical operation stream.
package workload

import (
	"fmt"
	"math/rand"

	"adcache/internal/bloom"
)

// Scan lengths used throughout the paper.
const (
	// ShortScanLen is the paper's short scan length.
	ShortScanLen = 16
	// LongScanLen is the paper's long scan length.
	LongScanLen = 64
)

// OpKind tags a generated operation.
type OpKind int

// Operation kinds.
const (
	OpGet OpKind = iota
	OpScan
	OpPut
)

// Op is one generated operation.
type Op struct {
	Kind    OpKind
	Key     []byte
	ScanLen int
	Value   []byte
}

// Mix is an operation mixture in percent (must sum to 100).
type Mix struct {
	GetPct       int
	ShortScanPct int
	LongScanPct  int
	WritePct     int
}

// The paper's four static workloads (§5.2).
var (
	// MixPointLookup consists solely of point queries.
	MixPointLookup = Mix{GetPct: 100}
	// MixShortScan performs scans of length 16 only.
	MixShortScan = Mix{ShortScanPct: 100}
	// MixBalanced mixes 33% points, 33% short scans, 33% writes (the
	// remaining 1% is assigned to points).
	MixBalanced = Mix{GetPct: 34, ShortScanPct: 33, WritePct: 33}
	// MixLongScan performs scans of length 64 only.
	MixLongScan = Mix{LongScanPct: 100}
)

// Phase couples a name to a mix for dynamic schedules.
type Phase struct {
	Name string
	Mix  Mix
}

// DynamicPhases is Table 3: the six-phase schedule A→F.
func DynamicPhases() []Phase {
	return []Phase{
		{"A", Mix{GetPct: 1, ShortScanPct: 1, LongScanPct: 97, WritePct: 1}},
		{"B", Mix{GetPct: 1, ShortScanPct: 49, LongScanPct: 49, WritePct: 1}},
		{"C", Mix{GetPct: 49, ShortScanPct: 49, LongScanPct: 1, WritePct: 1}},
		{"D", Mix{GetPct: 25, ShortScanPct: 25, LongScanPct: 1, WritePct: 49}},
		{"E", Mix{GetPct: 1, ShortScanPct: 49, LongScanPct: 1, WritePct: 49}},
		{"F", Mix{GetPct: 1, ShortScanPct: 12, LongScanPct: 12, WritePct: 75}},
	}
}

// Config parameterises a Generator.
type Config struct {
	// NumKeys is the key-space size.
	NumKeys int
	// ValueSize is the value payload length in bytes (paper: 1000;
	// scaled-down experiments default to 100).
	ValueSize int
	// PointSkew is the Zipfian theta for point lookups and writes
	// (paper default 0.9).
	PointSkew float64
	// ScanSkew is the Zipfian theta for scan start keys.
	ScanSkew float64
	// Seed drives all randomness.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.NumKeys <= 0 {
		c.NumKeys = 100_000
	}
	if c.ValueSize <= 0 {
		c.ValueSize = 100
	}
	if c.PointSkew == 0 {
		c.PointSkew = 0.9
	}
	if c.ScanSkew == 0 {
		c.ScanSkew = 0.9
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Generator produces deterministic operation streams.
type Generator struct {
	cfg       Config
	rng       *rand.Rand
	pointZipf *Zipfian
	scanZipf  *Zipfian
	valueSeq  int64
}

// NewGenerator returns a generator for cfg.
func NewGenerator(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	return &Generator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		pointZipf: NewZipfian(uint64(cfg.NumKeys), cfg.PointSkew),
		scanZipf:  NewZipfian(uint64(cfg.NumKeys), cfg.ScanSkew),
	}
}

// Key renders the i-th key, i ≥ 0: "user" and i zero-padded to 20 digits,
// a 24-byte fixed-width format matching the paper's key size (the bytes of
// fmt.Sprintf("user%020d", i), without its formatting cost).
func Key(i int) []byte {
	k := []byte("user00000000000000000000")
	for j := len(k) - 1; i > 0; j-- {
		k[j] = byte('0' + i%10)
		i /= 10
	}
	return k
}

// KeyIndexUpper returns the exclusive upper key for index i (sharding).
func KeyIndexUpper(i int) string { return string(Key(i)) }

// scramble spreads Zipfian ranks across the key space so hot keys are not
// physically adjacent (YCSB's scrambled Zipfian), while scans still cover
// contiguous runs of the key space from their start key.
func (g *Generator) scramble(rank uint64) int {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(rank >> (8 * i))
	}
	return int(bloom.Hash64(buf[:]) % uint64(g.cfg.NumKeys))
}

// Value fabricates a payload for key index i, distinct per write.
func (g *Generator) Value(i int) []byte {
	g.valueSeq++
	v := make([]byte, g.cfg.ValueSize)
	copy(v, fmt.Sprintf("v%016d-%010d-", g.valueSeq, i))
	for j := 30; j < len(v); j++ {
		v[j] = 'x'
	}
	return v
}

// InitialValue fabricates the load-phase payload for key index i.
func (g *Generator) InitialValue(i int) []byte {
	v := make([]byte, g.cfg.ValueSize)
	copy(v, fmt.Sprintf("init%010d-", i))
	for j := 15; j < len(v); j++ {
		v[j] = 'y'
	}
	return v
}

// Next draws one operation from mix.
func (g *Generator) Next(mix Mix) Op {
	r := g.rng.Intn(100)
	switch {
	case r < mix.GetPct:
		idx := g.scramble(g.pointZipf.Next(g.rng.Float64()))
		return Op{Kind: OpGet, Key: Key(idx)}
	case r < mix.GetPct+mix.ShortScanPct:
		idx := g.scramble(g.scanZipf.Next(g.rng.Float64()))
		return Op{Kind: OpScan, Key: Key(idx), ScanLen: ShortScanLen}
	case r < mix.GetPct+mix.ShortScanPct+mix.LongScanPct:
		idx := g.scramble(g.scanZipf.Next(g.rng.Float64()))
		return Op{Kind: OpScan, Key: Key(idx), ScanLen: LongScanLen}
	default:
		idx := g.scramble(g.pointZipf.Next(g.rng.Float64()))
		return Op{Kind: OpPut, Key: Key(idx), Value: g.Value(idx)}
	}
}

// NumKeys reports the configured key-space size.
func (g *Generator) NumKeys() int { return g.cfg.NumKeys }

// ValueSize reports the configured value size.
func (g *Generator) ValueSize() int { return g.cfg.ValueSize }
