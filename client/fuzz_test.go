package client

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"

	"adcache/internal/api"
)

// scanAll reads a whole scan stream the way ScanCtx does, through a
// scanStream over c's pooled decoder, and releases it.
func scanAll(c codec, body io.Reader) ([]api.ScanEntry, error) {
	st := &scanStream{done: func() {}, dec: c.decoder(body), limit: 16}
	defer st.release()
	var out []api.ScanEntry
	for {
		st.advance()
		if st.exhausted {
			return out, st.err
		}
		out = append(out, api.ScanEntry{Key: string(st.key), Value: string(st.value)})
	}
}

// FuzzJSONScanStream: arbitrary bytes as a JSON scan response never panic
// the client's decoder, read whole or a byte at a time (so every element
// is also cut by the buffer's edge and parsed again) with the same result;
// and whenever it accepts a stream, encoding/json decodes the same bytes
// into the same entries. The seed corpus in testdata holds escapes,
// surrogate pairs, lone surrogates, whitespace, null, unknown members,
// invalid UTF-8 and a stream cut mid-entry.
func FuzzJSONScanStream(f *testing.F) {
	f.Add([]byte(`[{"key":"a","value":"1"},{"key":"b","value":"2"}]` + "\n"))
	f.Add([]byte(`[{"key":"a","value":"1"},{"key":"b","val`))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := scanAll(jsonCodec{}, bytes.NewReader(data))
		bytewise, berr := scanAll(jsonCodec{}, iotest.OneByteReader(bytes.NewReader(data)))
		if err == io.EOF || berr == io.EOF {
			t.Fatalf("a failed stream reported io.EOF")
		}
		if (err == nil) != (berr == nil) {
			t.Fatalf("read whole: %v; a byte at a time: %v", err, berr)
		}
		if err != nil {
			return
		}
		if !equalEntries(got, bytewise) {
			t.Fatalf("read whole: %q; a byte at a time: %q", got, bytewise)
		}
		var want []api.ScanEntry
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("accepted %q as %q, but encoding/json rejects it: %v", data, got, err)
		}
		if !equalEntries(got, want) {
			t.Fatalf("%q decodes as %q, encoding/json as %q", data, got, want)
		}
	})
}

func equalEntries(a, b []api.ScanEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeEnvelope: any error body becomes an *api.Envelope without
// panicking — the body's own envelope when it is one (a JSON object with
// a code, within the 4 KiB the client reads), and otherwise INTERNAL
// carrying the status and the body.
func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte(`{"code":"WRONG_SHARD","message":"shard 3 owned by node \"b\"","epoch":7}` + "\n"))
	f.Add([]byte(`{"code":"","message":"no code"}`))
	f.Add([]byte("<html>502 Bad Gateway</html>"))
	f.Fuzz(func(t *testing.T, body []byte) {
		resp := &http.Response{StatusCode: http.StatusBadGateway, Status: "502 Bad Gateway",
			Body: io.NopCloser(bytes.NewReader(body))}
		env := decodeEnvelope(resp)
		if env == nil {
			t.Fatal("no envelope")
		}
		var want api.Envelope
		if json.Unmarshal(body[:min(len(body), 4096)], &want) == nil && want.Code != "" {
			if *env != want {
				t.Fatalf("envelope %+v, body says %+v", *env, want)
			}
			return
		}
		if env.Code != api.CodeInternal || !strings.HasPrefix(env.Message, resp.Status) {
			t.Fatalf("a body that is no envelope became %+v, want INTERNAL with the status", *env)
		}
	})
}
