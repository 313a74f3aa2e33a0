package main

import (
	"fmt"

	"adcache/internal/lsm"
)

// Every value names the key index it belongs to and the version of the write
// that produced it, both as fixed-width decimal (JSON-safe for the service's
// text codec), followed by filler up to valueSize.
const (
	valueSize = 256
	idxDigits = 10
	verDigits = 10
	valueHdr  = idxDigits + 1 + verDigits + 1
	keyPrefix = len("user")
	keyLen    = keyPrefix + 20 // workload.Key's format
)

func putDec(dst []byte, v uint64) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

func getDec(src []byte) (uint64, bool) {
	var v uint64
	for _, c := range src {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// makeValue builds the value of key idx at version ver.
func makeValue(idx int, ver uint32) []byte {
	v := make([]byte, valueSize)
	putDec(v[:idxDigits], uint64(idx))
	v[idxDigits] = ':'
	putDec(v[idxDigits+1:valueHdr-1], uint64(ver))
	v[valueHdr-1] = ':'
	for i := valueHdr; i < len(v); i++ {
		v[i] = 'x'
	}
	return v
}

// keyIndex inverts workload.Key.
func keyIndex(key []byte) (int, bool) {
	if len(key) != keyLen || string(key[:keyPrefix]) != "user" {
		return 0, false
	}
	v, ok := getDec(key[keyPrefix:])
	return int(v), ok
}

// oracle knows what every read must return. There are no deletes, so every
// key of the loaded range exists; worker w is the only writer of the keys
// with idx % workers == w, so it knows their exact version (read-your-writes)
// and, once all workers have stopped, versions holds the whole store.
type oracle struct {
	keys     int
	workers  int
	versions []uint32 // element idx is written only by worker idx % workers
}

func newOracle(keys, workers int) *oracle {
	return &oracle{keys: keys, workers: workers, versions: make([]uint32, keys)}
}

// own maps a generated key index to the nearest one the worker may write.
func (o *oracle) own(idx, worker int) int {
	idx = idx - idx%o.workers + worker
	if idx >= o.keys {
		idx -= o.workers
	}
	return idx
}

// checkValue verifies one returned pair. worker < 0 means every version is
// known (final scan); otherwise only the worker's own keys are pinned.
func (o *oracle) checkValue(idx int, value []byte, worker int) error {
	if len(value) != valueSize || value[idxDigits] != ':' || value[valueHdr-1] != ':' {
		return fmt.Errorf("key %d: malformed value %q", idx, clip(value))
	}
	gotIdx, ok1 := getDec(value[:idxDigits])
	gotVer, ok2 := getDec(value[idxDigits+1 : valueHdr-1])
	if !ok1 || !ok2 {
		return fmt.Errorf("key %d: malformed value %q", idx, clip(value))
	}
	if int(gotIdx) != idx {
		return fmt.Errorf("key %d: value belongs to key %d", idx, gotIdx)
	}
	if worker < 0 || idx%o.workers == worker {
		if want := o.versions[idx]; uint32(gotVer) != want {
			return fmt.Errorf("key %d: version %d, last written %d", idx, gotVer, want)
		}
	}
	return nil
}

func (o *oracle) checkGet(idx int, value []byte, found bool, worker int) error {
	if !found {
		return fmt.Errorf("key %d: not found", idx)
	}
	return o.checkValue(idx, value, worker)
}

// checkScan verifies a scan of n entries from key index start: because every
// key exists, the result is exactly keys start, start+1, … in order.
func (o *oracle) checkScan(start, n int, got []lsm.KV, worker int) error {
	want := min(n, o.keys-start)
	if len(got) != want {
		return fmt.Errorf("scan from %d: %d entries, want %d", start, len(got), want)
	}
	for i, kv := range got {
		if idx, ok := keyIndex(kv.Key); !ok || idx != start+i {
			return fmt.Errorf("scan from %d: entry %d has key %q", start, i, clip(kv.Key))
		}
		if err := o.checkValue(start+i, kv.Value, worker); err != nil {
			return err
		}
	}
	return nil
}

func clip(b []byte) []byte {
	if len(b) > 40 {
		return b[:40]
	}
	return b
}
