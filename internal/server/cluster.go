package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
)

// The cluster plane: the shard-map control endpoints, the per-slot
// statistics the shard manager polls, and the migration surface — which
// is the data plane's stream and write path under a token.

// handleShardMap serves the node's current map and accepts newer epochs
// from the shard manager.
func (s *server) handleShardMap(w http.ResponseWriter, r *http.Request) {
	if s.cfg.src == nil {
		s.writeErr(w, http.StatusNotFound, api.CodeNotFound, "node is not cluster-configured")
		return
	}
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(s.cfg.src.Current())
	case http.MethodPost:
		applier, ok := s.cfg.src.(MapApplier)
		if !ok {
			s.writeErr(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				"node's map source is read-only")
			return
		}
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		var m cluster.ShardMap
		if err := json.Unmarshal(body, &m); err != nil {
			s.writeErr(w, http.StatusBadRequest, api.CodeBadMap, err.Error())
			return
		}
		// Installing a map is the migration fence: take the flight write
		// lock so every write apply admitted under the old map commits
		// before the new map (and the 204 that releases the shard manager
		// to start copying) lands.
		s.flight.Lock()
		err := applier.Apply(&m)
		s.flight.Unlock()
		if err != nil {
			if m.Epoch < s.epoch() {
				s.writeErr(w, http.StatusConflict, api.CodeStaleEpoch, err.Error())
			} else {
				s.writeErr(w, http.StatusBadRequest, api.CodeBadMap, err.Error())
			}
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		s.methodNotAllowed(w, r)
	}
}

// handleShardStats serves the per-slot cumulative latency histograms the
// shard manager polls.
func (s *server) handleShardStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r)
		return
	}
	st := api.ShardStats{Node: s.cfg.nodeID, Epoch: s.epoch(), Shards: make([]api.ShardStat, s.nShards)}
	for i := 0; i < s.nShards; i++ {
		st.Shards[i] = api.ShardStat{
			Shard:  i,
			Reads:  s.readHist[i].Snapshot(),
			Writes: s.writeHist[i].Snapshot(),
		}
	}
	// Unified memory ledger (adaptive strategy only): lets the manager and
	// operators watch memory shift between memtables and the caches.
	if ad := s.db.AdCache(); ad != nil {
		budgets := ad.Budgets()
		st.Budgets = make([]api.BudgetStat, 0, len(budgets))
		for _, b := range budgets {
			st.Budgets = append(st.Budgets, api.BudgetStat{
				Component:   b.Component,
				TargetBytes: b.TargetBytes,
				ActualBytes: b.ActualBytes,
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

// purgeBatchOps bounds the delete batches a purge commits: the slot is
// deleted in runs of this many keys, never materialized whole.
const purgeBatchOps = 1024

// handleMigrate is the shard manager's bulk-transfer surface: export,
// bulk-load, and purge one hash slot. All verbs require the internal
// token — this is control-plane, not client API — and all bodies are
// binary: the export is the entry stream /v1/scan speaks, a load is the
// batch framing /v1/batch speaks. Hash partitioning scatters a slot
// across the key space, so export and purge walk the whole local keyspace
// — fine at reproduction scale; a range-partitioned map would make them
// bounded scans.
func (s *server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !s.internalOK(r) {
		s.writeErr(w, http.StatusForbidden, api.CodeForbidden,
			"migration requires a valid "+api.HeaderInternal+" token")
		return
	}
	raw := r.URL.Query().Get("shard")
	shard, err := strconv.Atoi(raw)
	if err != nil || shard < 0 || shard >= s.nShards {
		s.writeErr(w, http.StatusBadRequest, api.CodeBadShard,
			fmt.Sprintf("shard must be an integer in [0,%d), got %q", s.nShards, raw))
		return
	}
	m := s.currentMap()
	switch r.Method {
	case http.MethodGet:
		s.stream(w, binCodec{}, m, nil, nil, 0, func(slot int) bool { return slot == shard })
	case http.MethodPost:
		if s.deny(w) {
			return
		}
		body, ok := s.readBody(w, r)
		if !ok {
			return
		}
		q := s.newWriteReq(m, true)
		defer q.release()
		if s.stage(w, binCodec{}, body, q) && s.commit(w, q) {
			w.WriteHeader(http.StatusNoContent)
		}
	case http.MethodDelete:
		if s.deny(w) {
			return
		}
		if m != nil && s.owns(m, shard) {
			s.writeErr(w, http.StatusConflict, api.CodeOwnedShard,
				fmt.Sprintf("refusing to purge shard %d: still owned by this node", shard))
			return
		}
		if s.purge(w, m, shard) {
			w.WriteHeader(http.StatusNoContent)
		}
	default:
		s.methodNotAllowed(w, r)
	}
}

// purge deletes every local key of shard: it walks an iterator snapshot,
// stages the slot's keys and commits them through the write path every
// purgeBatchOps keys. It reports success, having
// answered the error itself otherwise.
func (s *server) purge(w http.ResponseWriter, m *cluster.ShardMap, shard int) bool {
	it, err := s.db.NewIter()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return false
	}
	defer it.Close()
	q := s.newWriteReq(m, true)
	defer q.release()
	for more := it.First(); more; more = it.Next() {
		k := it.Key()
		if s.slot(m, k) != shard {
			continue
		}
		// The iterator reuses its key buffer; the staged key must not.
		q.add(wire.OpDelete, bytes.Clone(k), nil, shard)
		if len(q.kinds) == purgeBatchOps {
			if !s.commit(w, q) {
				return false
			}
			q.reset()
		}
	}
	if err := it.Err(); err != nil {
		s.writeErr(w, http.StatusInternalServerError, api.CodeInternal, err.Error())
		return false
	}
	return len(q.kinds) == 0 || s.commit(w, q)
}
