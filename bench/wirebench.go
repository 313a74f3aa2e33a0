package main

import (
	"bytes"
	"encoding/json"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/workload"
)

// codecCost is what one codec costs per key-value entry.
type codecCost struct {
	encodeNs, decodeNs, bytes float64
}

// wireCosts compares the service's two codecs on the same entries.
type wireCosts struct {
	bin, json codecCost
}

// wireBudget bounds each of the four timed loops.
const wireBudget = 50 * time.Millisecond

// wireGroups is how many batch requests and scan results each loop covers.
const wireGroups = 64

// perEntry repeats pass, which handles entries entries, until the budget is
// spent, and returns nanoseconds per entry.
func perEntry(entries int, pass func()) float64 {
	pass() // size the buffers
	n := 0
	start := time.Now()
	for time.Since(start) < wireBudget {
		pass()
		n += entries
	}
	return float64(time.Since(start)) / float64(n)
}

func totalLen(bodies ...[][]byte) (n int) {
	for _, set := range bodies {
		for _, b := range set {
			n += len(b)
		}
	}
	return n
}

// measureWire times both codecs from outside the service, on the shapes the
// serve_mixed workload sends: batches of batchSize puts (request direction)
// and scan results of ShortScanLen entries (response direction), built from
// the workload's own keys and values.
func measureWire(seed int64) wireCosts {
	gen := workload.NewGenerator(workload.Config{NumKeys: 20_000, ValueSize: 1, Seed: seed})
	type entry struct{ key, value []byte }
	rawBatches := make([][]entry, wireGroups)
	rawScans := make([][]entry, wireGroups)
	batches := make([][]api.BatchOp, wireGroups)
	scans := make([][]api.ScanEntry, wireGroups)
	for g := range batches {
		for i := 0; i < batchSize; i++ {
			idx, _ := keyIndex(gen.Next(workload.Mix{WritePct: 100}).Key)
			e := entry{workload.Key(idx), makeValue(idx, 1)}
			rawBatches[g] = append(rawBatches[g], e)
			batches[g] = append(batches[g], api.BatchOp{Op: "put", Key: string(e.key), Value: string(e.value)})
		}
		start, _ := keyIndex(gen.Next(workload.Mix{ShortScanPct: 100}).Key)
		for i := 0; i < workload.ShortScanLen; i++ {
			e := entry{workload.Key(start + i), makeValue(start+i, 0)}
			rawScans[g] = append(rawScans[g], e)
			scans[g] = append(scans[g], api.ScanEntry{Key: string(e.key), Value: string(e.value)})
		}
	}
	entries := wireGroups * (batchSize + workload.ShortScanLen)
	batchBodies := make([][]byte, wireGroups)
	scanBodies := make([][]byte, wireGroups)
	var c wireCosts

	c.bin.encodeNs = perEntry(entries, func() {
		for g := range rawBatches {
			b := wire.AppendBatchHeader(batchBodies[g][:0], len(rawBatches[g]))
			for _, e := range rawBatches[g] {
				b = wire.AppendPut(b, e.key, e.value)
			}
			s := wire.AppendStreamHeader(scanBodies[g][:0])
			for _, e := range rawScans[g] {
				s = wire.AppendEntry(s, e.key, e.value)
			}
			batchBodies[g], scanBodies[g] = b, wire.AppendStreamEnd(s)
		}
	})
	c.bin.bytes = float64(totalLen(batchBodies, scanBodies)) / float64(entries)
	var bd wire.BatchDecoder
	var sd wire.StreamDecoder
	var rd bytes.Reader
	c.bin.decodeNs = perEntry(entries, func() {
		for g := range batchBodies {
			if bd.Init(batchBodies[g]) == nil {
				for bd.Remaining() > 0 {
					if _, _, _, err := bd.Next(); err != nil {
						break
					}
				}
			}
			rd.Reset(scanBodies[g])
			for sd.Reset(&rd); ; {
				if _, _, err := sd.Next(); err != nil {
					break // io.EOF at the terminator frame
				}
			}
		}
	})

	c.json.encodeNs = perEntry(entries, func() {
		for g := range batches {
			batchBodies[g], _ = json.Marshal(batches[g]) // strings cannot fail to marshal
			scanBodies[g], _ = json.Marshal(scans[g])
		}
	})
	c.json.bytes = float64(totalLen(batchBodies, scanBodies)) / float64(entries)
	c.json.decodeNs = perEntry(entries, func() {
		for g := range batchBodies {
			var ops []api.BatchOp
			_ = json.Unmarshal(batchBodies[g], &ops) // our own encoding
			// The client decodes a scan response element by element.
			rd.Reset(scanBodies[g])
			dec := json.NewDecoder(&rd)
			if _, err := dec.Token(); err != nil {
				continue
			}
			for dec.More() {
				var e api.ScanEntry
				if dec.Decode(&e) != nil {
					break
				}
			}
		}
	})
	return c
}
