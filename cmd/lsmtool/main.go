// Command lsmtool inspects and exercises an on-disk database built by this
// engine.
//
// Usage:
//
//	lsmtool -dir /tmp/db stats
//	lsmtool -dir /tmp/db metrics        # Prometheus text dump of the registry
//	lsmtool -dir /tmp/db put k v
//	lsmtool -dir /tmp/db get k
//	lsmtool -dir /tmp/db scan k 10
//	lsmtool -dir /tmp/db fill 10000     # load synthetic keys
//	lsmtool -dir /tmp/db compact
//	lsmtool -dir /tmp/db check          # verify checksums & invariants
//	lsmtool -dir /tmp/db manifest       # the version-edit history, then the state
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"adcache"
	"adcache/internal/lsm"
	"adcache/internal/manifest"
	"adcache/internal/vfs"
	"adcache/internal/workload"
)

func main() {
	var (
		dir   = flag.String("dir", "db", "database directory")
		cache = flag.Int64("cache", 8<<20, "cache bytes (AdCache strategy)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: lsmtool -dir DIR stats|metrics|put|get|scan|fill|compact|check|manifest ...")
		os.Exit(2)
	}
	if args[0] == "manifest" {
		// Read the directory as it is: opening the database would commit
		// edits of its own.
		if err := printManifest(os.Stdout, vfs.NewOS(), *dir); err != nil {
			fatal(err)
		}
		return
	}

	lsmOpts := lsm.DefaultOptions(*dir)
	db, err := adcache.Open(adcache.Options{
		Dir:        *dir,
		FS:         vfs.NewOS(),
		CacheBytes: *cache,
		Strategy:   adcache.StrategyAdCache,
		LSM:        &lsmOpts,
	})
	if err != nil {
		fatal(err)
	}
	defer db.Close()

	switch args[0] {
	case "stats":
		m := db.LSM().Metrics()
		fmt.Printf("levels (files): %v\n", m.LevelFiles)
		fmt.Printf("levels (bytes): %v\n", m.LevelBytes)
		fmt.Printf("sorted runs:    %d\n", m.SortedRuns)
		fmt.Printf("entries:        %d (+%d in memtable)\n", m.TotalEntries, m.MemTableEntries)
		fmt.Printf("total bytes:    %d\n", m.TotalBytes)
		fmt.Printf("flushes:        %d, compactions: %d\n", m.Flushes, m.Compactions)
		fmt.Printf("moves:          %d (%d bytes moved down a level, none rewritten)\n", m.Moves, m.MovedBytes)
		fmt.Printf("seal fallbacks: %d (seals without a prepared log)\n", m.SealFallbacks)
		fmt.Printf("table opens:    %d (by flushes and compactions, or by reads of recovered tables)\n", m.TableOpens)
		fmt.Printf("sst reads:      %d (query path)\n", db.SSTReads())
	case "metrics":
		// Full registry in Prometheus text form — pipe-friendly for diffing
		// against a live server's /metrics.
		if err := db.Registry().WritePrometheus(os.Stdout); err != nil {
			fatal(err)
		}
	case "put":
		need(args, 3)
		if err := db.Put([]byte(args[1]), []byte(args[2])); err != nil {
			fatal(err)
		}
		if err := db.Flush(); err != nil {
			fatal(err)
		}
	case "get":
		need(args, 2)
		v, ok, err := db.Get([]byte(args[1]))
		if err != nil {
			fatal(err)
		}
		if !ok {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s\n", v)
	case "scan":
		need(args, 3)
		n, err := strconv.Atoi(args[2])
		if err != nil {
			fatal(err)
		}
		kvs, err := db.Scan([]byte(args[1]), n)
		if err != nil {
			fatal(err)
		}
		for _, kv := range kvs {
			fmt.Printf("%s = %s\n", kv.Key, kv.Value)
		}
	case "fill":
		need(args, 2)
		n, err := strconv.Atoi(args[1])
		if err != nil {
			fatal(err)
		}
		gen := workload.NewGenerator(workload.Config{NumKeys: n})
		for i := 0; i < n; i++ {
			if err := db.Put(workload.Key(i), gen.InitialValue(i)); err != nil {
				fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			fatal(err)
		}
		m := db.LSM().Metrics()
		fmt.Printf("loaded %d keys: %d compactions rewrote %d bytes, %d moves moved %d bytes\n",
			n, m.Compactions, m.CompactedBytes, m.Moves, m.MovedBytes)
	case "compact":
		if err := db.Compact(); err != nil {
			fatal(err)
		}
		fmt.Println(db.LSM().String())
	case "check":
		rep, err := db.LSM().VerifyIntegrity()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("ok: %d files, %d entries, ~%d blocks verified\n",
			rep.Files, rep.Entries, rep.BlocksChecked)
	default:
		fatal(fmt.Errorf("unknown subcommand %q", args[0]))
	}
}

// printManifest prints one line per edit of dir's MANIFEST, oldest first,
// then the state they fold to.
func printManifest(w io.Writer, fs vfs.FS, dir string) error {
	edits, err := manifest.ReadFile(fs, dir)
	if err != nil {
		return err
	}
	for i, e := range edits {
		fmt.Fprintf(w, "%d %s next_file=%d last_seq=%d", i+1, e.Kind, e.NextFileNum, e.LastSeq)
		for _, f := range e.Added {
			fmt.Fprintf(w, " +L%d:%06d", f.Level, f.Meta.FileNum)
		}
		for _, f := range e.Deleted {
			fmt.Fprintf(w, " -L%d:%06d", f.Level, f.FileNum)
		}
		for _, n := range e.AddedWALs {
			fmt.Fprintf(w, " +wal:%06d", n)
		}
		for _, n := range e.RetiredWALs {
			fmt.Fprintf(w, " -wal:%06d", n)
		}
		fmt.Fprintln(w)
	}
	st, err := manifest.Fold(edits)
	if err != nil {
		return err
	}
	wals := make([]string, len(st.WALNums))
	for i, n := range st.WALNums {
		wals[i] = fmt.Sprintf("%06d", n)
	}
	fmt.Fprintf(w, "state next_file=%d last_seq=%d wals=[%s]\n", st.NextFileNum, st.LastSeq, strings.Join(wals, " "))
	for level, files := range st.Version.Levels {
		if len(files) == 0 {
			continue
		}
		fmt.Fprintf(w, "L%d", level)
		for _, f := range files {
			fmt.Fprintf(w, " %06d[%q..%q]", f.FileNum, f.Smallest.UserKey(), f.Largest.UserKey())
		}
		fmt.Fprintln(w)
	}
	return nil
}

func need(args []string, n int) {
	if len(args) < n {
		fatal(fmt.Errorf("%s: expected %d args", args[0], n-1))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsmtool:", err)
	os.Exit(1)
}
