package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// decodeAll reads every element of in, in place when stream is false and
// through src otherwise.
func decodeAll(in []byte, src io.Reader) ([]BatchOp, error) {
	var d JSONDecoder
	if src == nil {
		d.ResetBytes(in)
	} else {
		d.Reset(src)
	}
	var out []BatchOp
	for {
		var f JSONFields
		err := d.Next(&f)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, BatchOp{Op: string(f.Op), Key: string(f.Key), Value: string(f.Value)})
	}
}

// decodeEveryWay decodes in whole and in place, as one stream read, and as
// a stream read a byte at a time, and fails unless all three agree.
func decodeEveryWay(t *testing.T, in string) ([]BatchOp, error) {
	t.Helper()
	whole, err := decodeAll([]byte(in), nil)
	stream, serr := decodeAll(nil, bytes.NewReader([]byte(in)))
	bytewise, berr := decodeAll(nil, iotest.OneByteReader(bytes.NewReader([]byte(in))))
	if (err == nil) != (serr == nil) || (err == nil) != (berr == nil) {
		t.Fatalf("%q: in place %v, stream %v, byte at a time %v", in, err, serr, berr)
	}
	if err == nil && (!reflect.DeepEqual(whole, stream) || !reflect.DeepEqual(whole, bytewise)) {
		t.Fatalf("%q: in place %+v, stream %+v, byte at a time %+v", in, whole, stream, bytewise)
	}
	return whole, err
}

// TestJSONDecoderMatchesEncodingJSON: every body the decoder accepts decodes
// as encoding/json decodes it, whichever way it is read; the rejections are
// the documented ones.
func TestJSONDecoderMatchesEncodingJSON(t *testing.T) {
	accepted := []string{
		`[]`, ` [ ] `, "\t[\r\n]\n", `null`, ` null `, `[null]`, `[{}]`,
		`[{"op":"put","key":"a","value":"b"},{"op":"delete","key":"c"}]`,
		`[{"key":"k","value":""},{"key":"","value":null}]`,
		`[{"key":"a","key":"b"}]`, `[{"key":"a","key":null}]`,
		`[{"extra":"x","key":"a","other":null}]`,
		`[{"key":"esc \" \\ \/ \b \f \n \r \t"}]`,
		`[{"key":"é€😀 raw é€😀"}]`,
		`[{"key":"lone \ud800 high, \udc00 low, \ud800A pair-less"}]`,
		`[{"key":"\ud800𐀀"}]`,
		`[{"\u006bey":"escaped name"}]`,
		"[{\"key\":\"bad \xff\xfe utf8 \xe2\x82 cut\"}]",
		"[{\"op\":\"put\",\"key\":\"\xff\xff\xff\xff\xff\",\"value\":\"after\"}]",
		"[{\"key\":\"\xff\"},{\"key\":\"\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\"}]",
		`[{"key":"a"} , {"key":"b"} ]`,
	}
	for _, in := range accepted {
		got, err := decodeEveryWay(t, in)
		if err != nil {
			t.Errorf("%q rejected: %v", in, err)
			continue
		}
		var want []BatchOp
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("%q: encoding/json rejects it: %v", in, err)
		}
		if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Errorf("%q: decoded %+v, encoding/json %+v", in, got, want)
		}
	}

	rejected := []struct {
		in  string
		cut bool // wraps io.ErrUnexpectedEOF
	}{
		{``, true}, {`[`, true}, {`[{"key":"a"}`, true}, {`[{"key":"a"},`, true},
		{`[{"key":"a`, true}, {`[{"key":"\u00`, true}, {`[{"key"`, true}, {`nul`, true},
		{`[{"key":"a"}]x`, false}, {`[{"key":"a"}] []`, false}, {`{}`, false},
		{`[1]`, false}, {`[[]]`, false}, {`[{"key":"a",}]`, false}, {`[{"key":"a"},]`, false},
		{`[{"key":1}]`, false}, {`[{"value":true}]`, false}, {`[{"x":{}}]`, false},
		{`[{"key":"\x"}]`, false}, {`[{"key":"\u12G4"}]`, false}, {"[{\"key\":\"a\nb\"}]", false},
		{`[{key:"a"}]`, false}, {`[{"key" "a"}]`, false}, {`[nil]`, false}, {`[{"key":nul}]`, false},
		// Where encoding/json is more lenient: case-folded member names.
		{`[{"KEY":"a"}]`, false}, {`[{"Op":"put"}]`, false}, {`[{"VALUE":"v"}]`, false},
		{`[{"Key":"kelvin sign"}]`, false}, {`[{"\u212Aey":"escaped kelvin sign"}]`, false},
	}
	for _, tc := range rejected {
		_, err := decodeEveryWay(t, tc.in)
		var je *JSONError
		if !errors.As(err, &je) {
			t.Errorf("%q: error %v, want a *JSONError", tc.in, err)
			continue
		}
		if got := errors.Is(err, io.ErrUnexpectedEOF); got != tc.cut {
			t.Errorf("%q: %v; cut = %v, want %v", tc.in, err, got, tc.cut)
		}
	}
}

// TestInPlaceNeverOvertakesUnreadInput: a string whose U+FFFD replacements
// outgrow its encoding moves to a fresh buffer instead of overwriting the
// input after it, and strings that fit stay inside the body.
func TestInPlaceNeverOvertakesUnreadInput(t *testing.T) {
	body := []byte("[{\"key\":\"\xff\xff\xff\xff\",\"value\":\"v\\n\"}]")
	var d JSONDecoder
	d.ResetBytes(body)
	var f JSONFields
	if err := d.Next(&f); err != nil {
		t.Fatal(err)
	}
	if want := "����"; string(f.Key) != want || string(f.Value) != "v\n" {
		t.Fatalf("decoded %q=%q, want %q=%q", f.Key, f.Value, want, "v\n")
	}
	if err := d.Next(&f); err != io.EOF {
		t.Fatalf("end: %v", err)
	}
	// Clearing the body clears what aliases it.
	clear(body)
	if string(f.Key) != "����" || string(f.Value) != "\x00\x00" {
		t.Fatalf("after clearing the body: key %q (want it kept apart), value %q (want it in the body)", f.Key, f.Value)
	}
}

// TestAppendJSONString: the encoder's output decodes, through encoding/json
// and through JSONDecoder, to what encoding/json makes of the same bytes.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{"", "plain", "q\"b\\s", "\x00\x01\x1f\n\r\t", "é€😀", "\xff\xfe", "a\xe2\x82b", "<>& "} {
		enc := AppendJSONString(nil, []byte(s))
		var viaJSON string
		if err := json.Unmarshal(enc, &viaJSON); err != nil {
			t.Fatalf("%q encodes as %s, which encoding/json rejects: %v", s, enc, err)
		}
		ref, _ := json.Marshal(s)
		var want string
		json.Unmarshal(ref, &want)
		if viaJSON != want {
			t.Errorf("%q: decodes as %q, encoding/json's round trip gives %q", s, viaJSON, want)
		}
		body := append(append([]byte("["), AppendScanEntry(nil, []byte(s), []byte(s))...), ']')
		got, err := decodeAll(body, nil)
		if err != nil || len(got) != 1 || got[0].Key != want || got[0].Value != want {
			t.Errorf("%q: scan entry %s decodes as %+v, %v", s, body, got, err)
		}
		body = AppendBatchOp([]byte("["), "put", []byte(s), []byte(s))
		body = append(AppendBatchOp(append(body, ','), "delete", []byte(s), []byte("dropped")), ']')
		got, err = decodeAll(body, nil)
		wantOps := []BatchOp{{Op: "put", Key: want, Value: want}, {Op: "delete", Key: want}}
		if err != nil || !reflect.DeepEqual(got, wantOps) {
			t.Errorf("%q: batch %s decodes as %+v, %v", s, body, got, err)
		}
	}
}
