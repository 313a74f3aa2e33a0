package rangecache

import (
	"bytes"
	"strconv"
	"sync"

	"adcache/internal/workload"
)

// The repo benchmark's embed_read workload as the range cache sees it when
// AdCache has given it the whole budget: 200k keys of 24 bytes with
// 256-byte values, scrambled Zipfian (θ 0.9) starts, 50 % Get, 30 %
// Scan-16, 20 % Scan-64, every miss admitted.
var embedRead = workload.Mix{GetPct: 50, ShortScanPct: 30, LongScanPct: 20}

const mixKeys = 200_000

// mixTable is the database: key i at index i. Every value is the same 256
// bytes; the cache copies what it admits.
var mixTable = sync.OnceValue(func() []KV {
	value := bytes.Repeat([]byte{'v'}, 256)
	out := make([]KV, mixKeys)
	for i := range out {
		out[i] = KV{Key: workload.Key(i), Value: value}
	}
	return out
})

// mixOp is one operation on the table: a Get of key idx when n is 0, else
// a scan of n keys from it.
type mixOp struct{ idx, n int }

// mixOps draws count operations of mix from the workload generator.
func mixOps(mix workload.Mix, seed int64, count int) []mixOp {
	g := workload.NewGenerator(workload.Config{NumKeys: mixKeys, ValueSize: 256, Seed: seed})
	out := make([]mixOp, count)
	for i := range out {
		op := g.Next(mix)
		idx, err := strconv.Atoi(string(op.Key[len("user"):]))
		if err != nil {
			panic(err)
		}
		out[i] = mixOp{idx: idx, n: op.ScanLen}
	}
	return out
}

// serveMix looks op up in the cache and, on a miss, admits the database's
// answer the way AdCache does at its starting parameters: a point result
// whole, a scan result up to a = 16 entries past the covered prefix plus
// b = 0.5 of the rest. It reports whether the cache answered.
func serveMix(c *Cache, table []KV, op mixOp) bool {
	e := table[op.idx]
	if op.n == 0 {
		if _, ok := c.Get(e.Key); ok {
			return true
		}
		c.InsertPoint(e.Key, e.Value)
		return false
	}
	if _, ok := c.Scan(e.Key, op.n); ok {
		return true
	}
	res := table[op.idx:min(op.idx+op.n, len(table))]
	grow := len(res)
	if grow > workload.ShortScanLen {
		grow = max((grow-workload.ShortScanLen)/2, 1)
	}
	c.ExtendScan(e.Key, res, grow)
	return false
}

// hitRatio serves ops and returns the share the cache answered.
func hitRatio(c *Cache, table []KV, ops []mixOp) float64 {
	hits := 0
	for _, op := range ops {
		if serveMix(c, table, op) {
			hits++
		}
	}
	return float64(hits) / float64(len(ops))
}
