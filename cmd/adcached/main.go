// Command adcached serves a store over the versioned /v1 HTTP API (see
// internal/server for the endpoint reference, API.md for the wire
// format), either as a single node or as one member of a sharded
// cluster.
//
// Single node:
//
//	adcached -dir /var/lib/adcache -addr :8080 -cache 268435456
//	curl -X PUT -d 'value' localhost:8080/v1/kv/mykey
//	curl localhost:8080/v1/kv/mykey
//	curl 'localhost:8080/v1/scan?start=my&n=10'
//	curl localhost:8080/v1/stats
//
// Cluster of three (run each in its own terminal, then point the client
// package — or curl — at any of them):
//
//	adcached -node a -addr :8081 -peers a=127.0.0.1:8081,b=127.0.0.1:8082,c=127.0.0.1:8083 -cluster-token s3cret -dir /tmp/node-a
//	adcached -node b -addr :8082 -peers a=127.0.0.1:8081,b=127.0.0.1:8082,c=127.0.0.1:8083 -cluster-token s3cret -dir /tmp/node-b
//	adcached -node c -addr :8083 -peers a=127.0.0.1:8081,b=127.0.0.1:8082,c=127.0.0.1:8083 -cluster-token s3cret -dir /tmp/node-c -manage
//
// Every member computes the identical epoch-1 round-robin shard map from
// the sorted -peers list, so the cluster needs no bootstrap coordinator.
// -cluster-token is the shared secret authenticating shard-migration
// traffic; it must be identical on every node. Exactly one member should
// run with -manage: it hosts the shard manager, which polls every node's
// per-shard latency histograms and rebalances hot shards by publishing
// higher map epochs.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"adcache"
	"adcache/internal/cluster"
	"adcache/internal/lsm"
	"adcache/internal/server"
	"adcache/internal/vfs"
)

func main() {
	var (
		dir      = flag.String("dir", "adcached-db", "database directory")
		addr     = flag.String("addr", ":8080", "listen address")
		cache    = flag.Int64("cache", 64<<20, "cache budget in bytes")
		strategy = flag.String("strategy", "adcache", "cache strategy: adcache|block|kv|range|lecar|cacheus|none")
		readonly = flag.Bool("readonly", false, "reject writes; serve reads and observability only")
		maxBody  = flag.Int64("maxbody", 0, "request body size cap in bytes (default 64 MiB)")
		maxReqs  = flag.Int("maxinflight", 0, "bound on concurrent data-plane requests (0 = unlimited)")

		coalesce   = flag.Bool("coalesce", false, "coalesce concurrent writes (singles and batches) into grouped commits")
		coalWindow = flag.Duration("coalesce-window", 100*time.Microsecond, "max extra latency a write waits to join a group (0 = group only already-queued writes)")
		coalOps    = flag.Int("coalesce-ops", 128, "max ops per coalesced group")

		drainWait = flag.Duration("drain-timeout", 10*time.Second, "max time to drain in-flight requests on SIGINT/SIGTERM before forcing shutdown")

		pprofOn   = flag.Bool("pprof", false, "serve profiling endpoints under /debug/pprof/")
		mutexFrac = flag.Int("mutexprofilefraction", 0, "runtime.SetMutexProfileFraction for /debug/pprof/mutex (0 = off)")
		blockRate = flag.Int("blockprofilerate", 0, "runtime.SetBlockProfileRate for /debug/pprof/block (0 = off)")

		nodeID   = flag.String("node", "", "cluster node ID (enables cluster mode with -peers)")
		peers    = flag.String("peers", "", "cluster members as id=host:port,id=host:port")
		shards   = flag.Int("shards", cluster.DefaultShards, "cluster hash-slot count (fixed for the cluster's lifetime)")
		token    = flag.String("cluster-token", "", "shared secret authenticating shard-migration traffic; must match on every node (required in cluster mode)")
		manage   = flag.Bool("manage", false, "run the shard manager in this process")
		interval = flag.Duration("manage-interval", 2*time.Second, "shard-manager poll period")
	)
	flag.Parse()

	strat, err := adcache.ParseStrategy(*strategy)
	if err != nil {
		fatal(err)
	}

	db, err := openStore(vfs.NewOS(), *dir, *cache, strat)
	if err != nil {
		fatal(err)
	}

	drain := &server.DrainState{}
	opts := []server.Option{server.WithDrainState(drain)}
	if *readonly {
		opts = append(opts, server.WithReadOnly())
	}
	if *maxBody > 0 {
		opts = append(opts, server.WithMaxBodyBytes(*maxBody))
	}
	if *maxReqs > 0 {
		opts = append(opts, server.WithConcurrencyLimit(*maxReqs))
	}
	if *coalesce {
		opts = append(opts, server.WithWriteCoalescing(*coalWindow, *coalOps))
	}
	if *pprofOn {
		opts = append(opts, server.WithPprof())
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
	}

	if (*nodeID == "") != (*peers == "") {
		fatal(fmt.Errorf("cluster mode needs both -node and -peers"))
	}
	if *nodeID != "" {
		if *token == "" {
			fatal(fmt.Errorf("cluster mode requires -cluster-token (shared migration secret, identical on every node)"))
		}
		nodes, err := cluster.ParsePeers(*peers)
		if err != nil {
			fatal(err)
		}
		initial, err := cluster.InitialMap(nodes, *shards)
		if err != nil {
			fatal(err)
		}
		view, err := cluster.NewNodeView(*nodeID, initial)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, server.WithCluster(view), server.WithInternalToken(*token))
		fmt.Printf("adcached: node %q in %d-node cluster, %d hash slots, owning %v\n",
			*nodeID, len(nodes), initial.Shards, initial.OwnedBy(*nodeID))
		if *manage {
			mgr, err := cluster.NewManager(initial, cluster.ManagerOptions{
				Interval:      *interval,
				InternalToken: *token,
				Logf:          log.Printf,
			})
			if err != nil {
				fatal(err)
			}
			go mgr.Run(context.Background())
			fmt.Printf("adcached: shard manager running (poll %s)\n", *interval)
		}
	} else if *manage {
		fatal(fmt.Errorf("-manage requires cluster mode (-node and -peers)"))
	}

	mode := "read-write"
	if *readonly {
		mode = "read-only"
	}
	fmt.Printf("adcached: serving %s (%s strategy, %d MiB cache, %s) on %s\n",
		*dir, db.Strategy(), *cache>>20, mode, *addr)
	fmt.Printf("adcached: API under %s/v1/; observability at %s/v1/stats, %s/v1/health, %s/metrics, %s/debug/vars\n",
		*addr, *addr, *addr, *addr, *addr)

	// Graceful shutdown: on SIGINT/SIGTERM flip /v1/health to draining
	// (503 readiness, so balancers and the shard manager stop sending new
	// work), stop accepting, let in-flight requests finish up to
	// -drain-timeout, then close the DB cleanly — every acked write is on
	// disk before the process exits.
	hs := &http.Server{Addr: *addr, Handler: server.New(db, opts...)}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		fmt.Printf("adcached: %s: draining (up to %s) before shutdown\n", s, *drainWait)
		drain.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "adcached: drain deadline exceeded, forcing close:", err)
			hs.Close()
		}
	}()
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-drained
	if err := db.Close(); err != nil {
		fatal(err)
	}
	fmt.Println("adcached: clean shutdown")
}

// openStore opens the node's store: engine defaults, with the engine's
// error-handler and recovery events (background failures, retries, the
// read-only transition, orphan cleanup) on the standard logger.
func openStore(fs vfs.FS, dir string, cacheBytes int64, strat adcache.Strategy) (*adcache.DB, error) {
	lsmOpts := lsm.DefaultOptions(dir)
	lsmOpts.Logf = log.Printf
	return adcache.Open(adcache.Options{
		Dir:        dir,
		FS:         fs,
		CacheBytes: cacheBytes,
		Strategy:   strat,
		LSM:        &lsmOpts,
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "adcached:", err)
	os.Exit(1)
}
