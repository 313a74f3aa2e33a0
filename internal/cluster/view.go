package cluster

import (
	"fmt"
	"sync/atomic"
)

// NodeView is one node's live view of the cluster: its own identity plus
// the newest shard map it has accepted. The server enforces ownership
// against it and serves/accepts /v1/shardmap through it; the shard manager
// advances it by publishing higher epochs.
type NodeView struct {
	id  string
	cur atomic.Pointer[ShardMap]
}

// NewNodeView returns a view for node id starting at map m (which must
// validate and must assign at least one... may assign zero slots to id —
// a node can legitimately start empty and receive shards later).
func NewNodeView(id string, m *ShardMap) (*NodeView, error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: empty node ID")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if _, ok := m.NodeByID(id); !ok {
		return nil, fmt.Errorf("cluster: node %q not in map", id)
	}
	v := &NodeView{id: id}
	v.cur.Store(m)
	return v, nil
}

// ID returns this node's identity.
func (v *NodeView) ID() string { return v.id }

// Current returns the newest accepted map (never nil).
func (v *NodeView) Current() *ShardMap { return v.cur.Load() }

// Epoch returns the current map epoch.
func (v *NodeView) Epoch() uint64 { return v.cur.Load().Epoch }

// Owns reports whether this node owns key under the current map.
func (v *NodeView) Owns(key []byte) bool {
	return v.cur.Load().OwnerOf(key) == v.id
}

// OwnsShard reports whether this node owns slot shard currently.
func (v *NodeView) OwnsShard(shard int) bool {
	m := v.cur.Load()
	return shard >= 0 && shard < m.Shards && m.Owner[shard] == v.id
}

// Apply installs m as the current map. The epoch must strictly increase
// and the slot count must match — a cluster's slot count is fixed for its
// lifetime. Re-applying the current epoch is an idempotent no-op only if
// the contents match; a same-epoch map with different contents is
// rejected, because silently ignoring it would hide two maps minted at
// one epoch (e.g. a manager reusing an epoch after a failed move) and
// leave the fleet divergent.
func (v *NodeView) Apply(m *ShardMap) error {
	if err := m.Validate(); err != nil {
		return err
	}
	for {
		cur := v.cur.Load()
		if m.Epoch == cur.Epoch {
			if m.Equal(cur) {
				return nil // idempotent republish
			}
			return fmt.Errorf("cluster: divergent map at epoch %d (same epoch, different contents)", m.Epoch)
		}
		if m.Epoch < cur.Epoch {
			return fmt.Errorf("cluster: stale map epoch %d (have %d)", m.Epoch, cur.Epoch)
		}
		if m.Shards != cur.Shards {
			return fmt.Errorf("cluster: map changes shard count %d → %d", cur.Shards, m.Shards)
		}
		if v.cur.CompareAndSwap(cur, m) {
			return nil
		}
	}
}
