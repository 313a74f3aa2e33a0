package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"adcache/internal/api"
	"adcache/internal/api/wire"
)

// FuzzJSONBatchBody: arbitrary bytes as a JSON /v1/batch body never panic
// the staging decoder, which decodes each string in place over the body; it
// parses exactly the bodies a streaming decode parses, and stages nothing
// from one it rejects as malformed; and whenever it accepts a body —
// staging every op, or stopping at an op kind it refuses — encoding/json
// decodes the same bytes into the same ops. The seed corpus
// in testdata holds escapes, surrogate pairs, lone surrogates, whitespace,
// null, unknown members, a body cut mid-op and ops whose invalid UTF-8
// expands to U+FFFD ahead of the input not yet read.
func FuzzJSONBatchBody(f *testing.F) {
	f.Add(jsonOps(put("a", "1"), api.BatchOp{Op: "delete", Key: "b"}))
	f.Add([]byte(`[{"op":"zap","key":"a"}]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var got []api.BatchOp
		err := jsonCodec{}.each(bytes.Clone(body), func(_ int, kind byte, key, value []byte) error {
			op := api.BatchOp{Op: "put", Key: string(key), Value: string(value)}
			if kind == wire.OpDelete {
				op = api.BatchOp{Op: "delete", Key: string(key)}
			}
			got = append(got, op)
			return nil
		})
		var refused *reqError
		parsed := err == nil || errors.As(err, &refused)
		// A streaming decode writes nothing into the body, so in-place
		// decoding that overtook unread input would part from it here.
		var ref api.JSONDecoder
		ref.Reset(bytes.NewReader(body))
		var f api.JSONFields
		rerr := ref.Next(&f)
		for rerr == nil {
			rerr = ref.Next(&f)
		}
		if parsed != (rerr == io.EOF) {
			t.Fatalf("%q: staging says %v, a streaming decode %v", body, err, rerr)
		}
		if !parsed {
			if len(got) > 0 {
				t.Fatalf("staged %d ops of a body rejected as malformed (%v)", len(got), err)
			}
			return
		}
		var want []api.BatchOp
		if jerr := json.Unmarshal(body, &want); jerr != nil {
			t.Fatalf("accepted %q, but encoding/json rejects it: %v", body, jerr)
		}
		if refused != nil {
			if len(got) >= len(want) || want[len(got)].Op == "put" || want[len(got)].Op == "delete" {
				t.Fatalf("%q: refused after %d ops (%v), encoding/json reads %+v", body, len(got), err, want)
			}
			want = want[:len(got)]
		}
		if len(got) != len(want) {
			t.Fatalf("%q stages %+v, encoding/json reads %+v", body, got, want)
		}
		for i := range want {
			if want[i].Op == "delete" {
				want[i].Value = "" // a delete's value is never staged
			}
			if got[i] != want[i] {
				t.Fatalf("%q: op %d stages %+v, encoding/json reads %+v", body, i, got[i], want[i])
			}
		}
	})
}
