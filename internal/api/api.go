// Package api pins down the versioned /v1 wire format shared by the
// server, the Go client, and the shard manager: JSON request/response
// shapes, the typed error envelope, error codes, and routing headers.
// API.md documents the same surface for non-Go consumers; this package is
// the single in-tree source of truth so the two ends cannot drift.
package api

import "adcache/internal/metrics"

// Routing and control headers. Every /v1 response from a cluster-
// configured node carries HeaderNode, HeaderEpoch and (for keyed
// operations) HeaderShard, so clients can passively learn about newer map
// epochs without an extra round trip.
const (
	// HeaderEpoch carries a shard-map epoch: the client's view on
	// requests, the node's current epoch on responses.
	HeaderEpoch = "X-Adcache-Epoch"
	// HeaderShard is the hash slot the server computed for the request key.
	HeaderShard = "X-Adcache-Shard"
	// HeaderNode is the responding node's ID.
	HeaderNode = "X-Adcache-Node"
	// HeaderInternal authenticates control-plane traffic (shard
	// migration). Its value is the deployment's shared migration token
	// (adcached -cluster-token / server.WithInternalToken), never a
	// well-known constant: requests carrying the correct token may use
	// /v1/migrate and bypass ownership checks, and a node with no token
	// configured rejects all migration traffic.
	HeaderInternal = "X-Adcache-Internal"
)

// Error codes carried in the Envelope. Clients dispatch on Code, never on
// the human-readable message.
const (
	// CodeWrongShard: the key's slot is not owned by this node under the
	// node's current map (HTTP 421). Retryable after a map refresh; the
	// envelope's Epoch tells the client how stale it is.
	CodeWrongShard = "WRONG_SHARD"
	// CodeNotFound: key absent (HTTP 404).
	CodeNotFound = "NOT_FOUND"
	// CodeBadKey: empty or malformed key (HTTP 400).
	CodeBadKey = "BAD_KEY"
	// CodeBadLimit: unparseable or out-of-range n/limit parameter (HTTP 400).
	CodeBadLimit = "BAD_LIMIT"
	// CodeBadBody: unreadable or unparseable request body (HTTP 400).
	CodeBadBody = "BAD_BODY"
	// CodeBadOp: unknown operation inside a batch (HTTP 400).
	CodeBadOp = "BAD_OP"
	// CodeBadShard: unparseable or out-of-range shard parameter (HTTP 400).
	CodeBadShard = "BAD_SHARD"
	// CodeBadMap: a /v1/shardmap POST that fails validation (HTTP 400).
	CodeBadMap = "BAD_MAP"
	// CodeStaleEpoch: a /v1/shardmap POST older than the node's map (HTTP 409).
	CodeStaleEpoch = "STALE_EPOCH"
	// CodeTooLarge: request body over the node's cap (HTTP 413).
	CodeTooLarge = "TOO_LARGE"
	// CodeMethodNotAllowed: wrong HTTP method for the route (HTTP 405).
	CodeMethodNotAllowed = "METHOD_NOT_ALLOWED"
	// CodeReadOnly: mutating request on a read-only node (HTTP 403).
	CodeReadOnly = "READ_ONLY"
	// CodeForbidden: a control-plane route hit without a valid
	// HeaderInternal migration token (HTTP 403).
	CodeForbidden = "FORBIDDEN"
	// CodeOwnedShard: refusing to purge a shard this node still owns (HTTP 409).
	CodeOwnedShard = "OWNED_SHARD"
	// CodeInternal: engine-side failure (HTTP 500). Not retryable blindly.
	CodeInternal = "INTERNAL"
)

// Envelope is the typed error body every non-2xx /v1 response carries.
type Envelope struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Epoch is the responding node's current shard-map epoch (0 when the
	// node is not cluster-configured).
	Epoch uint64 `json:"epoch,omitempty"`
}

// Error makes an Envelope usable as a Go error (the client returns them
// verbatim for non-retryable codes).
func (e *Envelope) Error() string {
	return e.Code + ": " + e.Message
}

// ScanEntry is one /v1/scan result in the default JSON format. Keys and
// values are JSON strings — the JSON surface assumes UTF-8-clean data; the
// binary codec (internal/api/wire), which /v1/migrate always speaks, is
// raw-byte clean.
type ScanEntry struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// BatchOp is one operation in a /v1/batch request.
type BatchOp struct {
	Op    string `json:"op"` // "put" or "delete"
	Key   string `json:"key"`
	Value string `json:"value,omitempty"`
}

// ShardStat is one slot's cumulative read/write latency histograms as
// reported by /v1/shardstats. Cumulative — the shard manager diffs
// successive polls to get per-window load and tail latency.
type ShardStat struct {
	Shard  int                       `json:"shard"`
	Reads  metrics.HistogramSnapshot `json:"reads"`
	Writes metrics.HistogramSnapshot `json:"writes"`
}

// Health is the /v1/health response. Liveness (the process answers at
// all) is the 200 on `?probe=live`; readiness is the HTTP status of the
// plain GET — 200 when the node should receive traffic, 503 when it is
// draining for shutdown or its engine has degraded to read-only.
type Health struct {
	// Status is "ok" when ready, else "draining" or "degraded".
	Status string `json:"status"`
	// BgState mirrors the engine error-handler state: "healthy",
	// "retrying" (background errors being retried; still ready) or
	// "read-only" (writes fail fast until an operator resumes).
	BgState string `json:"bg_state"`
	// Draining is true once graceful shutdown has begun.
	Draining bool `json:"draining,omitempty"`
	// Node and Epoch identify the responder (cluster mode only).
	Node  string `json:"node,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// ShardStats is the /v1/shardstats response.
type ShardStats struct {
	Node   string      `json:"node"`
	Epoch  uint64      `json:"epoch"`
	Shards []ShardStat `json:"shards"`
}
