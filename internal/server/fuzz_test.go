package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzRequestKey drives arbitrary bytes through the request front end
// the way handleSynthesize does: decode into a SynthesizeRequest, then
// resolve. Nothing may panic. For an accepted body, the cache key must
// not depend on formatting: the same value re-indented, or with every
// object's fields in reverse order, resolves to the same key. And the
// graph's memoized canonical bytes, which the key hashes, must equal a
// fresh MarshalJSON.
func FuzzRequestKey(f *testing.F) {
	for _, seed := range []string{
		smallReq,
		`{"bench":"Synthetic4","baseline":true,"alloc":"(4,2,2,2)"}`,
		`{"protocol":{"kind":"serial_dilution","stages":3,"detect_each":true},"options":{"tc_s":1.5}}`,
		`{"assay":{"name":"a","operations":[{"name":"m","type":"mix","duration":"2s","diffusion_cm2_per_s":1e-5}],"dependencies":[]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, raw, err := decodeRequest(body)
		if err != nil {
			return
		}
		canon, err := req.graph.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted request's graph does not encode: %v", err)
		}
		fresh, err := req.graph.MarshalJSON()
		if err != nil || !bytes.Equal(canon, fresh) {
			t.Fatalf("memoized canonical bytes differ from a fresh MarshalJSON (%v):\n%s\nvs\n%s", err, canon, fresh)
		}

		var indented bytes.Buffer
		if err := json.Indent(&indented, raw, "\t", "   "); err != nil {
			t.Fatalf("accepted body does not indent: %v", err)
		}
		sameKey(t, "re-indented", req.key, indented.Bytes())
		if reordered, ok := reverseFields(raw); ok {
			sameKey(t, "reordered", req.key, reordered)
		}
	})
}

// decodeRequest is the handler's front end: the first JSON value of body
// decoded strictly into a SynthesizeRequest, then resolved. It also
// returns that first value's raw bytes; trailing bytes are ignored, as
// the handler ignores them.
func decodeRequest(body []byte) (*request, json.RawMessage, error) {
	var sreq SynthesizeRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sreq); err != nil {
		return nil, nil, err
	}
	req, err := resolve(&sreq)
	if err != nil {
		return nil, nil, err
	}
	var raw json.RawMessage
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&raw); err != nil {
		return nil, nil, err
	}
	return req, raw, nil
}

// sameKey resolves a reformatted body and checks it gives want.
func sameKey(t *testing.T, how, want string, body []byte) {
	t.Helper()
	req, _, err := decodeRequest(body)
	if err != nil {
		t.Fatalf("%s body rejected: %v\n%s", how, err, body)
	}
	if req.key != want {
		t.Fatalf("%s body keyed %s, original %s:\n%s", how, req.key, want, body)
	}
}

// reverseFields re-encodes one JSON value compactly with every object's
// fields in reverse order. ok is false when an object repeats a key as
// encoding/json matches keys, case-insensitively: reordering those
// changes which one wins, so the value's meaning is not preserved.
func reverseFields(raw []byte) (out []byte, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var buf bytes.Buffer
	if !reverseValue(dec, &buf) {
		return nil, false
	}
	return buf.Bytes(), true
}

func reverseValue(dec *json.Decoder, out *bytes.Buffer) bool {
	tok, err := dec.Token()
	if err != nil {
		return false
	}
	switch tok {
	case json.Delim('['):
		out.WriteByte('[')
		for i := 0; dec.More(); i++ {
			if i > 0 {
				out.WriteByte(',')
			}
			if !reverseValue(dec, out) {
				return false
			}
		}
		out.WriteByte(']')
	case json.Delim('{'):
		var keys []string
		var vals [][]byte
		for dec.More() {
			kt, err := dec.Token()
			if err != nil {
				return false
			}
			key := kt.(string)
			for _, k := range keys {
				if strings.EqualFold(k, key) {
					return false
				}
			}
			var v bytes.Buffer
			if !reverseValue(dec, &v) {
				return false
			}
			keys, vals = append(keys, key), append(vals, v.Bytes())
		}
		out.WriteByte('{')
		for i := len(keys) - 1; i >= 0; i-- {
			if i < len(keys)-1 {
				out.WriteByte(',')
			}
			k, _ := json.Marshal(keys[i])
			out.Write(k)
			out.WriteByte(':')
			out.Write(vals[i])
		}
		out.WriteByte('}')
	default:
		b, err := json.Marshal(tok)
		if err != nil {
			return false
		}
		out.Write(b)
		return true
	}
	_, err = dec.Token() // the closing delimiter
	return err == nil
}
