package adcache_test

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adcache"
	"adcache/internal/server"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics/*.golden from the running code")

// exposition reduces a /metrics body to what dashboards and API.md depend
// on: every series name in order, with its # HELP and # TYPE lines. Sample
// values are dropped.
func exposition(body []byte) string {
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.String()
}

func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
	path := filepath.Join("testdata", "metrics", name+".golden")
	got := exposition(body)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	seen := make(map[string]bool, len(gotLines))
	for _, l := range gotLines {
		seen[l] = true
	}
	for _, l := range wantLines {
		if !seen[l] {
			t.Errorf("%s: lost %q", name, l)
		}
		delete(seen, l)
	}
	for _, l := range gotLines {
		if seen[l] {
			t.Errorf("%s: gained %q", name, l)
		}
	}
	if !t.Failed() {
		t.Errorf("%s: same lines, different order", name)
	}
}

// TestGoldenExposition pins the names, types and help text of every series
// /metrics serves — per strategy, and for a served node with coalescing on —
// against lists generated before the stats path was rebuilt.
func TestGoldenExposition(t *testing.T) {
	strategies := append(adcache.Strategies(), adcache.StrategyNone)
	for _, s := range strategies {
		db, err := adcache.Open(adcache.Options{CacheBytes: 4 << 20, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := db.Registry().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, s.String(), buf.Bytes())
		db.Close()
	}

	db, err := adcache.Open(adcache.Options{CacheBytes: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := httptest.NewServer(server.New(db, server.WithWriteCoalescing(0, 0)))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "served", buf.Bytes())
}
