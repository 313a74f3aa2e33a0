package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
	"adcache/internal/lsm"
)

// The data plane: keyed reads, the one write path (stage → commit → apply)
// and the one entry-stream loop.

func (s *server) handleKV(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/v1/kv/")
	if key == "" {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadKey, "empty key")
		return
	}
	kb := []byte(key)
	m := s.currentMap()
	slot := s.slot(m, kb)
	s.routeHeaders(w, m, slot)
	start := writerOf(w).start
	switch r.Method {
	case http.MethodGet:
		if !s.owns(m, slot) && !s.internalOK(r) {
			s.writeWrongShard(w, slot, m.Owner[slot])
			return
		}
		v, ok, err := s.db.Get(kb)
		s.observeShard(slot, false, start)
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return
		}
		if !ok {
			s.writeErr(w, http.StatusNotFound, api.CodeNotFound, "key not found")
			return
		}
		w.Write(v)
	case http.MethodPut, http.MethodPost:
		if s.deny(w) {
			return
		}
		// Body first, lock second: a slow request body must not hold the
		// flight lock open (it would let one slow client widen the fence
		// window arbitrarily).
		value, ok := s.readBody(w, r)
		if !ok {
			return
		}
		s.writeOne(w, r, wire.OpPut, kb, value, slot, start)
	case http.MethodDelete:
		if s.deny(w) {
			return
		}
		s.writeOne(w, r, wire.OpDelete, kb, nil, slot, start)
	default:
		s.methodNotAllowed(w, r)
	}
}

// writeOne stages and commits a single-op write.
func (s *server) writeOne(w http.ResponseWriter, r *http.Request, kind byte, key, value []byte, slot int, start time.Time) {
	q := s.newWriteReq(nil, s.internalOK(r))
	defer q.release()
	q.add(kind, key, value, slot)
	s.finish(w, q, start)
}

// handleBatch applies a multi-op body atomically: JSON ([]api.BatchOp) by
// default, the binary batch framing when Content-Type is
// application/x-adcache-bin. Body-shape errors (BAD_BODY, BAD_KEY,
// BAD_OP) are decided here while staging, outside any lock; WRONG_SHARD
// is decided by apply inside the flight lock — so a batch that is both
// malformed and misrouted answers 400.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, r)
		return
	}
	if s.deny(w) {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	m := s.currentMap()
	s.routeHeaders(w, m, -1)
	q := s.newWriteReq(m, s.internalOK(r))
	defer q.release()
	if !s.stage(w, codecFor(r.Header.Get("Content-Type")), body, q) {
		return
	}
	s.finish(w, q, writerOf(w).start)
}

// writeReq is one staged write request — a single-op write carries one
// entry, a batch body or migration chunk one entry per op — plus its
// outcome. Keys and values alias the request's pooled body buffer; the
// handler blocks in commit until the group holding the request has been
// applied, so the buffer cannot be recycled under apply. The parallel
// slices keep their capacity across pool round-trips; done is 1-buffered
// and reused.
type writeReq struct {
	kinds    []byte // wire.OpPut or wire.OpDelete, per entry
	keys     [][]byte
	values   [][]byte
	slots    []int
	internal bool // authenticated shard-manager traffic bypasses ownership

	// srv and m give stage the slot of each decoded key: slot indices are
	// fixed for the cluster's lifetime, so they are computed outside the
	// lock, under the map current when the body arrived.
	srv *server
	m   *cluster.ShardMap
	// stageFn is the method value q.stage, bound once when the request is
	// first allocated (binding it per request would allocate).
	stageFn stageFunc

	// Outcome, set by apply.
	wrongShard bool
	slot       int // offending slot when wrongShard
	owner      string
	err        error
	done       chan struct{}
}

var writeReqPool = sync.Pool{New: func() any {
	q := &writeReq{done: make(chan struct{}, 1)}
	q.stageFn = q.stage
	return q
}}

// newWriteReq returns an empty pooled request; release returns it.
func (s *server) newWriteReq(m *cluster.ShardMap, internal bool) *writeReq {
	q := writeReqPool.Get().(*writeReq)
	q.srv, q.m, q.internal = s, m, internal
	return q
}

// reset empties q for another round of staging (purge commits in bounded
// batches through one request).
func (q *writeReq) reset() {
	for i := range q.keys {
		q.keys[i], q.values[i] = nil, nil // drop the body aliases
	}
	q.kinds, q.keys, q.values, q.slots = q.kinds[:0], q.keys[:0], q.values[:0], q.slots[:0]
	q.wrongShard, q.slot, q.owner, q.err = false, 0, "", nil
}

// release recycles q; nothing it aliased stays pinned by the pool.
func (q *writeReq) release() {
	q.reset()
	q.srv, q.m = nil, nil
	writeReqPool.Put(q)
}

// add stages one entry.
func (q *writeReq) add(kind byte, key, value []byte, slot int) {
	q.kinds = append(q.kinds, kind)
	q.keys = append(q.keys, key)
	q.values = append(q.values, value)
	q.slots = append(q.slots, slot)
}

// stage is the stageFunc behind every decoded body: it validates one op's
// shape and stages it under its slot.
func (q *writeReq) stage(i int, kind byte, key, value []byte) error {
	if len(key) == 0 {
		return &reqError{api.CodeBadKey, fmt.Sprintf("op %d: empty key", i)}
	}
	q.add(kind, key, value, q.srv.slot(q.m, key))
	return nil
}

// stage decodes body through c onto q — the one place request bytes
// become staged engine ops — answering 400 with the violation's code on
// failure.
func (s *server) stage(w http.ResponseWriter, c codec, body []byte, q *writeReq) bool {
	err := c.each(body, q.stageFn)
	if err == nil {
		return true
	}
	code := api.CodeBadBody
	var re *reqError
	if errors.As(err, &re) {
		code = re.code
	}
	s.writeErr(w, http.StatusBadRequest, code, err.Error())
	return false
}

// finish commits a staged data-plane write and answers it: 204 after one
// observation per distinct slot written, or commit's error envelope.
func (s *server) finish(w http.ResponseWriter, q *writeReq, start time.Time) {
	if !s.commit(w, q) {
		return
	}
	var seenArr [cluster.DefaultShards]bool
	seen := seenArr[:]
	if s.nShards > len(seen) {
		seen = make([]bool, s.nShards)
	}
	for _, sl := range q.slots {
		if sl < len(seen) && !seen[sl] {
			seen[sl] = true
			s.observeShard(sl, true, start)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// commit hands q to apply and reports whether it was written, answering
// 421 or 500 itself when it was not. Without write coalescing the request
// is a group of one applied on this goroutine; with it the collector
// applies it inside a larger group. Either way commit returns only after
// the group's engine commit: a 204 means durable, and the request's
// buffers are safe to recycle.
func (s *server) commit(w http.ResponseWriter, q *writeReq) bool {
	if s.coal != nil {
		s.coal.ch <- q
		<-q.done
	} else {
		s.apply([]*writeReq{q})
	}
	switch {
	case q.wrongShard:
		s.writeWrongShard(w, q.slot, q.owner)
		return false
	case q.err != nil:
		s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, q.err.Error())
		return false
	}
	return true
}

// batchPool recycles the engine batch apply fills.
var batchPool = sync.Pool{New: func() any { return lsm.NewBatch() }}

// apply is the single write path — the only function in the package that
// takes flight.RLock or writes to the engine. It commits a group of staged
// requests as ONE engine batch inside ONE flight-RLock hold, deciding each
// request's ownership against the map current inside that critical
// section, records each request's outcome and returns the number of
// entries written.
//
// A request with any slot this node does not own is rejected whole — none
// of its entries reach the engine batch — so a batch body stays atomic,
// and a request staged before a fence but applied after it answers
// WRONG_SHARD instead of writing into a slot that has moved. The fence
// takes the write side of flight, so when its 204 releases the shard
// manager to copy, every write acked under the old map has committed and
// is in the copy (TestFenceWriteRace*).
func (s *server) apply(group []*writeReq) int {
	b := batchPool.Get().(*lsm.Batch)
	b.Reset()
	s.flight.RLock()
	m := s.currentMap()
	for _, q := range group {
		if !q.internal {
			for _, sl := range q.slots {
				if !s.owns(m, sl) {
					q.wrongShard, q.slot, q.owner = true, sl, m.Owner[sl]
					break
				}
			}
			if q.wrongShard {
				continue
			}
		}
		for i, kind := range q.kinds {
			if kind == wire.OpPut {
				b.Put(q.keys[i], q.values[i])
			} else {
				b.Delete(q.keys[i])
			}
		}
	}
	staged := b.Len()
	var err error
	if staged > 0 {
		err = s.db.Apply(b)
	}
	s.flight.RUnlock()
	batchPool.Put(b)
	for _, q := range group {
		if !q.wrongShard {
			q.err = err
		}
	}
	return staged
}

// handleScan streams the node's owned entries from start: a JSON array by
// default, a binary entry stream (wire.StreamDecoder consumes it) with
// Accept: application/x-adcache-bin.
func (s *server) handleScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r)
		return
	}
	q := r.URL.Query()
	startKey := q.Get("start")
	n := 16
	if raw := q.Get("n"); raw != "" {
		parsed, err := strconv.Atoi(raw)
		if err != nil || parsed < 1 || parsed > 10_000 {
			s.writeErr(w, http.StatusBadRequest, api.CodeBadLimit,
				fmt.Sprintf("n must be an integer in [1,10000], got %q", raw))
			return
		}
		n = parsed
	}
	end := q.Get("end")
	if end != "" && end <= startKey {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadLimit,
			fmt.Sprintf("end %q not after start %q", end, startKey))
		return
	}
	t0 := writerOf(w).start
	m := s.currentMap()
	s.routeHeaders(w, m, -1)
	// Keys this node does not own under the current map are skipped: a
	// moved-away slot's leftover data must be invisible.
	first, ok := s.stream(w, codecFor(r.Header.Get("Accept")), m, []byte(startKey), []byte(end), n,
		func(slot int) bool { return s.owns(m, slot) })
	if !ok {
		return
	}
	// A scan touches many slots; charge it to the slot of its first
	// result (or the start key) — good enough for load attribution.
	if first < 0 {
		first = s.slot(m, []byte(startKey))
	}
	s.observeShard(first, false, t0)
}

// stream is the single entry-stream loop, behind /v1/scan and the
// migration export: it walks db.NewIter() from start to end (empty =
// unbounded), encodes up to limit (0 = unbounded) entries whose slot keep
// accepts through c into the request's scratch buffer, and writes and
// flushes it every scanFlushBytes, so a large result reaches the client
// incrementally. An engine error before the first flush still goes out as
// a whole error envelope; after it the response ends without c's
// terminator, so the client sees a truncated stream, not a silent prefix.
// It returns the slot of the first entry sent (-1 if none) and whether
// the stream completed.
func (s *server) stream(w http.ResponseWriter, c codec, m *cluster.ShardMap, start, end []byte, limit int, keep func(slot int) bool) (first int, ok bool) {
	first = -1
	it, err := s.db.NewIter()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return first, false
	}
	defer it.Close()
	w.Header().Set("Content-Type", c.contentType())
	tw := writerOf(w)
	buf := c.begin(tw.out[:0])
	n, flushed := 0, false
	for more := it.SeekGE(start); more && (limit == 0 || n < limit); more = it.Next() {
		k := it.Key()
		if len(end) > 0 && bytes.Compare(k, end) >= 0 {
			break
		}
		slot := s.slot(m, k)
		if !keep(slot) {
			continue
		}
		if first < 0 {
			first = slot
		}
		buf = c.entry(buf, n, k, it.Value())
		n++
		if len(buf) >= scanFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return first, false
			}
			flushed = true
			buf = buf[:0]
			tw.Flush()
		}
	}
	if err := it.Err(); err != nil {
		if !flushed {
			s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
			return first, false
		}
		tw.out = buf
		return first, false
	}
	buf = c.end(buf)
	w.Write(buf)
	tw.out = buf
	return first, true
}
