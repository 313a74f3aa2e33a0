package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"adcache"
	"adcache/client"
	"adcache/internal/lsm"
	"adcache/internal/server"
	"adcache/internal/workload"
)

// workers is the closed loop's width: two callers, two connections, one
// process — the reference sandbox has two processors.
const workers = 2

// loadBatch is the number of puts per commit while loading, so the load
// costs one WAL fsync per batch under the default flush policy.
const loadBatch = 512

// workloadDef is one row of the benchmark's workload table.
type workloadDef struct {
	name string
	why  string
	// served runs client → loopback HTTP → server.New(db) instead of
	// calling adcache.DB directly; worker 0 speaks the binary codec,
	// worker 1 JSON, and every second put becomes a batch of batchSize.
	served bool
	mix    workload.Mix
	skew   float64
	keys   int
	cache  int64
}

const batchSize = 8

var workloads = []workloadDef{
	{
		name: "embed_read",
		why:  "read-only gets and scans over data 10x the cache: block cache, range cache, admission and the RL split do the work",
		mix:  workload.Mix{GetPct: 50, ShortScanPct: 30, LongScanPct: 20},
		skew: 0.9, keys: 200_000, cache: 6 << 20,
	},
	{
		name: "embed_write",
		why:  "90% puts at low skew: WAL group commit, memtable, flush, compaction and stalls do the work, caches little",
		mix:  workload.Mix{GetPct: 10, WritePct: 90},
		skew: 0.6, keys: 200_000, cache: 6 << 20,
	},
	{
		name: "embed_balanced",
		why:  "the paper's Balanced mix: puts invalidate range entries and compaction invalidates blocks while reads fill them",
		mix:  workload.MixBalanced,
		skew: 0.9, keys: 200_000, cache: 6 << 20,
	},
	{
		name:   "serve_mixed",
		why:    "data fits the cache, so client, wire/JSON codecs, server and net/http do the work; one worker per codec",
		served: true,
		mix:    workload.Mix{GetPct: 40, ShortScanPct: 20, WritePct: 40},
		skew:   0.9, keys: 20_000, cache: 64 << 20,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// target is what a worker calls: the embedded DB or a service client.
type target interface {
	get(ctx context.Context, key []byte) (value []byte, found bool, err error)
	scan(ctx context.Context, start []byte, n int) ([]lsm.KV, error)
	put(ctx context.Context, key, value []byte) error
	batch(ctx context.Context, keys, values [][]byte) error
}

type embedded struct{ db *adcache.DB }

func (e embedded) get(_ context.Context, key []byte) ([]byte, bool, error) { return e.db.Get(key) }
func (e embedded) scan(_ context.Context, start []byte, n int) ([]lsm.KV, error) {
	return e.db.Scan(start, n)
}
func (e embedded) put(_ context.Context, key, value []byte) error { return e.db.Put(key, value) }
func (e embedded) batch(_ context.Context, keys, values [][]byte) error {
	b := e.db.NewBatch()
	for i := range keys {
		b.Put(keys[i], values[i])
	}
	return e.db.Apply(b)
}

type served struct{ c *client.Client }

func (s served) get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return s.c.GetCtx(ctx, key)
}
func (s served) scan(ctx context.Context, start []byte, n int) ([]lsm.KV, error) {
	got, err := s.c.ScanCtx(ctx, start, nil, n)
	out := make([]lsm.KV, len(got))
	for i, kv := range got {
		out[i] = lsm.KV(kv)
	}
	return out, err
}
func (s served) put(ctx context.Context, key, value []byte) error { return s.c.PutCtx(ctx, key, value) }
func (s served) batch(ctx context.Context, keys, values [][]byte) error {
	ops := make([]client.Op, len(keys))
	for i := range keys {
		ops[i] = client.Op{Kind: client.OpPut, Key: keys[i], Value: values[i]}
	}
	return s.c.BatchCtx(ctx, ops)
}

// stack is one workload's program under test, set up and loaded.
type stack struct {
	dir     string
	fs      *devFS
	db      *adcache.DB
	targets [workers]target

	// served workloads only
	hooks    *httpHooks
	srv      *http.Server
	serveErr chan error
	clients  [workers]*client.Client
}

// openStack is the benchmark's set-up: open the store in a fresh directory,
// load keys 0..keys-1 at version 0, flush, compact, and — for a served
// workload — start the listener and one client per worker.
func openStack(w workloadDef, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{dir: dir, fs: newDevFS(!w.served, tr)}
	db, err := adcache.Open(adcache.Options{
		Dir: dir, FS: s.fs, CacheBytes: w.cache, Strategy: adcache.StrategyAdCache,
	})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	s.db = db
	if err := s.load(w.keys); err != nil {
		s.close()
		return nil, err
	}
	if !w.served {
		for i := range s.targets {
			s.targets[i] = embedded{db}
		}
		return s, nil
	}
	if err := s.serve(tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) load(keys int) error {
	load := embedded{s.db}
	ks := make([][]byte, 0, loadBatch)
	vs := make([][]byte, 0, loadBatch)
	for i := 0; i < keys; i++ {
		ks = append(ks, workload.Key(i))
		vs = append(vs, makeValue(i, 0))
		if len(ks) == loadBatch || i == keys-1 {
			if err := load.batch(context.Background(), ks, vs); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			ks, vs = ks[:0], vs[:0]
		}
	}
	if err := s.db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	if err := s.db.Compact(); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	return nil
}

// serve starts adcached's handler with its defaults (no coalescing, no
// limiter, no service-time sleep: the engine is the load model) on a
// loopback listener, and one client per worker, each with its own
// connection pool; worker 0 uses the binary codec.
func (s *stack) serve(tr *tracer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hooks = newHTTPHooks(tr)
	s.srv = &http.Server{Handler: s.hooks.middleware(server.New(s.db))}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.srv.Serve(ln) }()
	for i := range s.clients {
		base := http.DefaultTransport.(*http.Transport).Clone()
		opts := []client.Option{client.WithHTTPClient(&http.Client{
			Transport: s.hooks.transport(base), Timeout: 30 * time.Second,
		})}
		if i == 0 {
			opts = append(opts, client.WithBinary())
		}
		c, err := client.New([]string{ln.Addr().String()}, opts...)
		if err != nil {
			return fmt.Errorf("client %d: %w", i, err)
		}
		s.clients[i] = c
		s.targets[i] = served{c}
	}
	return nil
}

// close stops everything the stack started, waits for it, and removes the
// store's directory.
func (s *stack) close() error {
	var errs []error
	for _, c := range s.clients {
		if c != nil {
			c.Close()
		}
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, s.srv.Shutdown(ctx))
		cancel()
		if err := <-s.serveErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.db.Close(), os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
