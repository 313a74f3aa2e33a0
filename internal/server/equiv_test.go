package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"adcache"
	"adcache/internal/api"
	"adcache/internal/api/wire"
)

// postBatch posts a batch body with an explicit content type.
func postBatch(t *testing.T, base string, contentType string, body []byte) (int, string) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, buf.String()
}

// scanJSON fetches a scan as the default JSON array.
func scanJSON(t *testing.T, base, start string, n int) []api.ScanEntry {
	t.Helper()
	resp, body := do(t, "GET", fmt.Sprintf("%s/v1/scan?start=%s&n=%d", base, url.QueryEscape(start), n), "")
	if resp.StatusCode != 200 {
		t.Fatalf("scan = %d %q", resp.StatusCode, body)
	}
	var out []api.ScanEntry
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("scan body %q: %v", body, err)
	}
	return out
}

// scanBinary fetches a scan as a binary entry stream and decodes it.
func scanBinary(t *testing.T, base, start string, n int) []api.ScanEntry {
	t.Helper()
	req, err := http.NewRequest("GET", fmt.Sprintf("%s/v1/scan?start=%s&n=%d", base, url.QueryEscape(start), n), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("binary scan = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, wire.ContentType)
	}
	var d wire.StreamDecoder
	d.Reset(resp.Body)
	var out []api.ScanEntry
	for {
		k, v, err := d.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		out = append(out, api.ScanEntry{Key: string(k), Value: string(v)})
	}
}

// TestBinaryScanRawBytes: the binary stream carries value bytes JSON
// cannot (invalid UTF-8 survives verbatim; the JSON view degrades it to
// U+FFFD exactly like encoding/json would).
func TestBinaryScanRawBytes(t *testing.T) {
	srv, db := testServer(t)
	raw := []byte{0x00, 0x01, 0xfe, 0xff, '"', '\\', '\n'}
	if err := db.Put([]byte("raw/k"), raw); err != nil {
		t.Fatal(err)
	}

	bin := scanBinary(t, srv.URL, "raw/", 10)
	if len(bin) != 1 || bin[0].Value != string(raw) {
		t.Fatalf("binary scan = %+v, want raw value %q", bin, raw)
	}

	js := scanJSON(t, srv.URL, "raw/", 10)
	enc, _ := json.Marshal(string(raw)) // encoding/json's lossy view
	var wantJSON string
	json.Unmarshal(enc, &wantJSON)
	if len(js) != 1 || js[0].Value != wantJSON {
		t.Fatalf("JSON scan = %+v, want %q", js, wantJSON)
	}
}

// TestPprofOptIn: /debug/pprof is absent by default and mounted with
// WithPprof.
func TestPprofOptIn(t *testing.T) {
	srv, _ := testServer(t)
	if resp, _ := do(t, "GET", srv.URL+"/debug/pprof/", ""); resp.StatusCode != 404 {
		t.Fatalf("default /debug/pprof/ = %d, want 404", resp.StatusCode)
	}

	db, err := adcache.Open(adcache.Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	psrv := httptest.NewServer(New(db, WithPprof()))
	t.Cleanup(func() {
		psrv.Close()
		db.Close()
	})
	resp, body := do(t, "GET", psrv.URL+"/debug/pprof/", "")
	if resp.StatusCode != 200 || !bytes.Contains([]byte(body), []byte("goroutine")) {
		t.Fatalf("pprof index = %d %q…", resp.StatusCode, body[:min(len(body), 80)])
	}
}
