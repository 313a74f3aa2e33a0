package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"adcache/internal/api"
	"adcache/internal/api/wire"
	"adcache/internal/cluster"
)

// fakeNode is an in-memory cluster of one node behind an http.RoundTripper:
// it serves the shard map (epoch 1, every slot on the node) and answers
// every data route, so tests see each request the client sends and can
// replace any answer — no sockets, no timing.
type fakeNode struct {
	// fault, when non-nil, answers data request n (0-based) instead of the
	// node; a nil response and nil error falls through to the node.
	fault func(n int, r *http.Request) (*http.Response, error)

	mu   sync.Mutex
	reqs []*http.Request
}

func (f *fakeNode) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/shardmap" {
		m := cluster.ShardMap{Epoch: 1, Shards: 1, Nodes: []cluster.Node{{ID: "n", Addr: r.URL.Host}}, Owner: []string{"n"}}
		b, _ := json.Marshal(m)
		return answer(r, http.StatusOK, "application/json", b), nil
	}
	f.mu.Lock()
	n := len(f.reqs)
	f.reqs = append(f.reqs, r)
	f.mu.Unlock()
	if f.fault != nil {
		if resp, err := f.fault(n, r); resp != nil || err != nil {
			return resp, err
		}
	}
	switch {
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/kv/"):
		return answer(r, http.StatusOK, "", []byte("v")), nil
	case r.URL.Path == "/v1/scan":
		var body []byte
		if r.Header.Get("Accept") == wire.ContentType {
			body = wire.AppendStreamHeader(body)
			body = wire.AppendEntry(body, []byte("a"), []byte("1"))
			body = wire.AppendEntry(body, []byte("b"), []byte("2"))
			body = wire.AppendStreamEnd(body)
		} else {
			body = []byte(`[{"key":"a","value":"1"},{"key":"b","value":"2"}]` + "\n")
		}
		return answer(r, http.StatusOK, r.Header.Get("Accept"), body), nil
	}
	return answer(r, http.StatusNoContent, "", nil), nil
}

func (f *fakeNode) requests() []*http.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*http.Request(nil), f.reqs...)
}

// answer builds a response to r.
func answer(r *http.Request, status int, ctype string, body []byte) *http.Response {
	h := http.Header{}
	if ctype != "" {
		h.Set("Content-Type", ctype)
	}
	return &http.Response{StatusCode: status, Status: http.StatusText(status), Header: h,
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: r}
}

// envelopeAnswer answers r with an error envelope.
func envelopeAnswer(r *http.Request, status int, code string, epoch uint64) *http.Response {
	b, _ := json.Marshal(api.Envelope{Code: code, Message: "injected", Epoch: epoch})
	return answer(r, status, "application/json", b)
}

// cutReader fails every read: a 2xx body that died mid-flight.
type cutReader struct{}

func (cutReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// pathOps are the client's operations, each checked for its own result.
var pathOps = []struct {
	name string
	read bool
	run  func(ctx context.Context, c *Client) error
}{
	{"get", true, func(ctx context.Context, c *Client) error {
		v, ok, err := c.GetCtx(ctx, []byte("k"))
		if err == nil && (!ok || string(v) != "v") {
			err = fmt.Errorf("Get = %q %v, want \"v\"", v, ok)
		}
		return err
	}},
	{"put", false, func(ctx context.Context, c *Client) error { return c.PutCtx(ctx, []byte("k"), []byte("v")) }},
	{"delete", false, func(ctx context.Context, c *Client) error { return c.DeleteCtx(ctx, []byte("k")) }},
	{"batch", false, func(ctx context.Context, c *Client) error {
		return c.BatchCtx(ctx, []Op{{Kind: OpPut, Key: []byte("k"), Value: []byte("v")}, {Kind: OpDelete, Key: []byte("j")}})
	}},
	{"scan", true, func(ctx context.Context, c *Client) error {
		kvs, err := c.ScanCtx(ctx, nil, nil, 10)
		if err == nil && (len(kvs) != 2 || string(kvs[0].Key) != "a" || string(kvs[1].Value) != "2") {
			err = fmt.Errorf("Scan = %+v, want a=1 b=2", kvs)
		}
		return err
	}},
}

// TestRequestPathMatrix: every operation, in both codecs, takes the one
// request path — so the same fault on its first attempt has the same
// outcome whatever the operation: the same number of requests sent, the
// same Stats counter moved, the same error surfaced, and the client's map
// epoch on every request.
func TestRequestPathMatrix(t *testing.T) {
	hang := func(n int, r *http.Request) (*http.Response, error) {
		if n == 0 {
			<-r.Context().Done()
			return nil, r.Context().Err()
		}
		return nil, nil
	}
	faults := []struct {
		name      string
		readsOnly bool
		hedge     bool
		fault     func(n int, r *http.Request) (*http.Response, error)
		sends     int    // requests the operation sends
		stat      string // the one Stats counter that moves, and by 1
		code      string // the envelope the call fails with ("" = success)
	}{
		{name: "healthy", sends: 1},
		{name: "transport error", sends: 2, stat: "RetryableErrors",
			fault: func(n int, _ *http.Request) (*http.Response, error) {
				if n == 0 {
					return nil, errors.New("connection reset by peer (injected)")
				}
				return nil, nil
			}},
		{name: "attempt timeout", sends: 2, stat: "RetryableErrors", fault: hang},
		{name: "wrong shard", sends: 2, stat: "WrongShardRetries",
			fault: func(n int, r *http.Request) (*http.Response, error) {
				if n == 0 {
					return envelopeAnswer(r, http.StatusMisdirectedRequest, api.CodeWrongShard, 1), nil
				}
				return nil, nil
			}},
		{name: "terminal envelope", sends: 1, stat: "TerminalErrors", code: api.CodeBadKey,
			fault: func(_ int, r *http.Request) (*http.Response, error) {
				return envelopeAnswer(r, http.StatusBadRequest, api.CodeBadKey, 0), nil
			}},
		{name: "body cut", readsOnly: true, sends: 2, stat: "RetryableErrors",
			fault: func(n int, r *http.Request) (*http.Response, error) {
				if n == 0 {
					resp := answer(r, http.StatusOK, r.Header.Get("Accept"), nil)
					resp.Body = io.NopCloser(cutReader{})
					return resp, nil
				}
				return nil, nil
			}},
		{name: "hedged", readsOnly: true, hedge: true, sends: 2, stat: "HedgedReads+HedgeWins", fault: hang},
	}
	for _, op := range pathOps {
		for _, binary := range []bool{false, true} {
			for _, fc := range faults {
				if fc.readsOnly && !op.read {
					continue
				}
				name := fmt.Sprintf("%s/json/%s", op.name, fc.name)
				if binary {
					name = fmt.Sprintf("%s/bin/%s", op.name, fc.name)
				}
				t.Run(name, func(t *testing.T) {
					node := &fakeNode{fault: fc.fault}
					opts := []Option{WithHTTPClient(&http.Client{Transport: node}),
						WithRetryBackoff(0), WithMaxRetries(3), WithJitterSeed(1)}
					if fc.hedge {
						opts = append(opts, WithHedgedReads(time.Millisecond))
					} else {
						opts = append(opts, WithRequestTimeout(20*time.Millisecond))
					}
					if binary {
						opts = append(opts, WithBinary())
					}
					c, err := New([]string{"node:1"}, opts...)
					if err != nil {
						t.Fatal(err)
					}
					err = op.run(context.Background(), c)
					if fc.code == "" && err != nil {
						t.Fatalf("call failed: %v", err)
					}
					if fc.code != "" && code(err) != fc.code {
						t.Fatalf("call error = %v, want the %s envelope", err, fc.code)
					}
					reqs := node.requests()
					if len(reqs) != fc.sends {
						t.Fatalf("sent %d requests, want %d", len(reqs), fc.sends)
					}
					for i, r := range reqs {
						if got := r.Header.Get(api.HeaderEpoch); got != "1" {
							t.Errorf("request %d (%s %s) carries epoch %q, want \"1\"", i, r.Method, r.URL.Path, got)
						}
					}
					st := c.Stats()
					moved := map[string]int64{
						"RetryableErrors":   st.RetryableErrors,
						"WrongShardRetries": st.WrongShardRetries,
						"TerminalErrors":    st.TerminalErrors,
						"HedgedReads":       st.HedgedReads,
						"HedgeWins":         st.HedgeWins,
					}
					want := map[string]int64{}
					for _, s := range strings.Split(fc.stat, "+") {
						if s != "" {
							want[s] = 1
						}
					}
					for k, v := range moved {
						if v != want[k] {
							t.Errorf("Stats.%s = %d, want %d (%+v)", k, v, want[k], st)
						}
					}
				})
			}
		}
	}
}

// TestScanCutIsAnError: a scan stream that ends without its terminator —
// the server's only way to signal a failure after its first flush — fails
// the scan in both codecs instead of returning a silently short result.
func TestScanCutIsAnError(t *testing.T) {
	for _, binary := range []bool{false, true} {
		node := &fakeNode{fault: func(_ int, r *http.Request) (*http.Response, error) {
			if r.URL.Path != "/v1/scan" {
				return nil, nil
			}
			body := []byte(`[{"key":"a","value":"1"}`)
			if r.Header.Get("Accept") == wire.ContentType {
				body = wire.AppendEntry(wire.AppendStreamHeader(nil), []byte("a"), []byte("1"))
			}
			return answer(r, http.StatusOK, r.Header.Get("Accept"), body), nil
		}}
		opts := []Option{WithHTTPClient(&http.Client{Transport: node}), WithRetryBackoff(0)}
		if binary {
			opts = append(opts, WithBinary())
		}
		c, err := New([]string{"node:1"}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if kvs, err := c.Scan(nil, nil, 10); err == nil {
			t.Errorf("binary=%v: cut scan returned %d entries and no error", binary, len(kvs))
		}
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestScanLostStreamStopsOtherOpens: once one node's stream fails
// terminally the scan is lost, so the opens still retrying elsewhere stop —
// a node behind an open breaker does not hold the answer for its whole
// backoff schedule, and the scan reports the failure that lost it.
func TestScanLostStreamStopsOtherOpens(t *testing.T) {
	rt := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		switch {
		case r.URL.Path == "/v1/shardmap":
			m := cluster.ShardMap{Epoch: 1, Shards: 2, Owner: []string{"a", "b"},
				Nodes: []cluster.Node{{ID: "a", Addr: "a:1"}, {ID: "b", Addr: "b:1"}}}
			b, _ := json.Marshal(m)
			return answer(r, http.StatusOK, "application/json", b), nil
		case r.URL.Host == "a:1":
			return envelopeAnswer(r, http.StatusBadRequest, api.CodeBadKey, 0), nil
		}
		return nil, errors.New("connection refused (injected)") // b is down
	})
	// b's breaker opens on its first failure; its three backoffs would
	// take 1.75 s on average.
	c, err := New([]string{"a:1"}, WithHTTPClient(&http.Client{Transport: rt}),
		WithBreaker(1, time.Minute), WithRetryBackoff(500*time.Millisecond),
		WithMaxRetries(3), WithJitterSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err = c.Scan(nil, nil, 10)
	if took := time.Since(t0); took > 400*time.Millisecond {
		t.Errorf("scan took %v after a terminal stream failure", took)
	}
	if code(err) != api.CodeBadKey {
		t.Errorf("scan error = %v, want the %s envelope", err, api.CodeBadKey)
	}
}

// TestBatchRejectsUnknownKind: an op kind neither codec can express fails
// the call before anything is sent — it is the caller's error, not a
// transport failure to retry.
func TestBatchRejectsUnknownKind(t *testing.T) {
	for _, binary := range []bool{false, true} {
		node := &fakeNode{}
		opts := []Option{WithHTTPClient(&http.Client{Transport: node}), WithRetryBackoff(0)}
		if binary {
			opts = append(opts, WithBinary())
		}
		c, err := New([]string{"node:1"}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		err = c.Batch([]Op{{Kind: OpPut, Key: []byte("a")}, {Kind: "merge", Key: []byte("b")}})
		if err == nil || !strings.Contains(err.Error(), "merge") {
			t.Errorf("binary=%v: Batch with an unknown kind = %v", binary, err)
		}
		if n := len(node.requests()); n != 0 {
			t.Errorf("binary=%v: %d requests sent for an invalid batch", binary, n)
		}
		if st := c.Stats(); st.RetryableErrors != 0 {
			t.Errorf("binary=%v: invalid batch retried: %+v", binary, st)
		}
	}
}

// TestAttemptAllocs pins the cost of the request path: an attempt that is
// not hedged runs on the caller's goroutine — no goroutine, channel or
// attempt context of its own — so a healthy single-key call allocates
// little beyond net/http's request and response.
func TestAttemptAllocs(t *testing.T) {
	const budget = 24
	node := &fakeNode{}
	c, err := New([]string{"node:1"}, WithHTTPClient(&http.Client{Transport: node}))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range pathOps[:3] { // get, put, delete
		ctx := context.Background()
		allocs := testing.AllocsPerRun(100, func() {
			if err := op.run(ctx, c); err != nil {
				t.Fatal(err)
			}
		})
		if !raceEnabled && allocs > budget {
			t.Errorf("%s: %.0f allocations per call, budget %d", op.name, allocs, budget)
		}
	}
}
