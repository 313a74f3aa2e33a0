package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/cluster"
)

// send issues one request without touching testing.T — safe from
// goroutines (t.Fatal must not be called off the test goroutine).
func send(method, url, body string) (int, string, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		return 0, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.String(), nil
}

// coalClusterServerDB is clusterServerDB with write coalescing on.
func coalClusterServerDB(t *testing.T, view *cluster.NodeView) (*httptest.Server, *adcache.DB) {
	t.Helper()
	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(db,
		WithCluster(view), WithInternalToken(testToken),
		WithWriteCoalescing(200*time.Microsecond, 64)))
	t.Cleanup(func() {
		srv.Close()
		db.Close()
	})
	return srv, db
}

// TestFenceWriteRaceCoalesced is TestFenceWriteRace with coalescing on:
// an in-flight PUT whose body completes only after the fence must be
// answered WRONG_SHARD by the coalescer's re-check and must not reach the
// engine — a coalesced ack still guarantees commit before the fence.
func TestFenceWriteRaceCoalesced(t *testing.T) {
	view, mine, _ := twoNodeView(t)
	srv, db := coalClusterServerDB(t, view)

	pr, pw := io.Pipe()
	type outcome struct {
		status int
		code   string
	}
	done := make(chan outcome, 1)
	go func() {
		req, err := http.NewRequest("PUT", srv.URL+"/v1/kv/"+mine, pr)
		if err != nil {
			done <- outcome{0, err.Error()}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- outcome{0, err.Error()}
			return
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		var env api.Envelope
		json.Unmarshal(buf.Bytes(), &env)
		done <- outcome{resp.StatusCode, env.Code}
	}()

	// Get the request in flight with its body still open…
	if _, err := pw.Write([]byte("v")); err != nil {
		t.Fatal(err)
	}
	// …then fence the key's slot away to the other node.
	cur := view.Current()
	next, err := cur.WithMove(cluster.ShardOf([]byte(mine), cur.Shards), "other")
	if err != nil {
		t.Fatal(err)
	}
	nb, _ := json.Marshal(next)
	if resp, body := do(t, "POST", srv.URL+"/v1/shardmap", string(nb)); resp.StatusCode != 204 {
		t.Fatalf("fence POST = %d %q", resp.StatusCode, body)
	}
	// Only now let the body finish. The op is coalesced after the fence,
	// so the group's ownership re-check runs under the post-fence map.
	pw.Write([]byte("2"))
	pw.Close()

	o := <-done
	if o.status != http.StatusMisdirectedRequest || o.code != api.CodeWrongShard {
		t.Fatalf("post-fence PUT = %d %q, want 421 WRONG_SHARD", o.status, o.code)
	}
	if _, ok, err := db.Get([]byte(mine)); err != nil || ok {
		t.Fatalf("rejected write reached the engine (ok=%v err=%v)", ok, err)
	}
}

// TestCoalescedFenceStress: writers hammer one owned slot while maps flip
// ownership away and back; every 204-acked write must be readable under a
// map where this node owns the key (no lost acked writes), and 421s must
// never have committed... the weaker but mechanical check here: acked
// writes present, total = acked + rejected.
func TestCoalescedFenceStress(t *testing.T) {
	view, mine, _ := twoNodeView(t)
	srv, db := coalClusterServerDB(t, view)

	const writers, rounds = 8, 20
	var acked sync.Map
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for wkr := 0; wkr < writers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				val := fmt.Sprintf("w%d-%d", wkr, i)
				status, _, err := send("PUT", srv.URL+"/v1/kv/"+mine, val)
				if err != nil {
					t.Errorf("PUT: %v", err)
					return
				}
				if status == 204 {
					acked.Store(val, true)
				} else if status != http.StatusMisdirectedRequest {
					t.Errorf("PUT = %d", status)
					return
				}
			}
		}(wkr)
	}
	// Flip the slot away and back repeatedly.
	slot := cluster.ShardOf([]byte(mine), view.Current().Shards)
	for r := 0; r < rounds; r++ {
		for _, owner := range []string{"other", "self"} {
			cur := view.Current()
			next, err := cur.WithMove(slot, owner)
			if err != nil {
				t.Fatal(err)
			}
			nb, _ := json.Marshal(next)
			if resp, body := do(t, "POST", srv.URL+"/v1/shardmap", string(nb)); resp.StatusCode != 204 {
				t.Fatalf("fence POST = %d %q", resp.StatusCode, body)
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	close(stop)
	wg.Wait()
	// The key's final value must be one some writer was acked for (the
	// last acked write wins; an unacked write must never be the survivor).
	v, ok, err := db.Get([]byte(mine))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		if _, was := acked.Load(string(v)); !was {
			t.Fatalf("surviving value %q was never acked", v)
		}
	}
}
