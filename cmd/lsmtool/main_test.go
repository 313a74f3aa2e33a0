package main

import (
	"fmt"
	"strings"
	"testing"

	"adcache/internal/lsm"
	"adcache/internal/vfs"
)

// TestPrintManifest: the manifest subcommand lists the edits of the last
// process to open the store, one per line, then the state they fold to.
func TestPrintManifest(t *testing.T) {
	fs := vfs.NewMem()
	opts := lsm.DefaultOptions("db")
	opts.FS = fs
	db, err := lsm.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := printManifest(&out, fs, "db"); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"1 snapshot next_file=2 last_seq=0 +wal:000001",
		// Open prepares the log the first seal switches to, and that
		// seal (inside Flush) prepares the next one, ahead of the flush.
		"2 seal next_file=3 last_seq=0 +wal:000002",
		"3 seal next_file=4 last_seq=0 +wal:000003",
		"4 flush next_file=5 last_seq=100 +L0:000004 -wal:000001",
		"5 close next_file=5 last_seq=100",
		// The prepared log stays listed, empty; the next Open retires it.
		"state next_file=5 last_seq=100 wals=[000002 000003]",
		`L0 000004["k000".."k099"]`,
	}
	if got := strings.Split(strings.TrimSpace(out.String()), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("manifest printout:\n%s\nwant:\n%s", out.String(), strings.Join(want, "\n"))
	}
}
