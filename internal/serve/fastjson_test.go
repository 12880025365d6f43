package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestParseLocalizeRequestMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		`{"model":"m","fingerprints":[[0.1,0.25,0],[1,2.5e-3,-4]]}`,
		`{"fingerprints":[[0.5]],"model":"other"}`, // key order
		`{"model":"m","fingerprints":[[]]}`,
		`{"model":"m","fingerprints":[]}`,
		"{ \"model\" : \"m\" ,\n \"fingerprints\" : [ [ 1 , 2 ] ] }",
		// Duplicate keys are valid JSON; encoding/json is last-wins and
		// the fast path must agree.
		`{"model":"a","model":"b","fingerprints":[[1]],"fingerprints":[[2],[3]]}`,
	}
	for _, raw := range cases {
		var want LocalizeRequest
		if err := json.Unmarshal([]byte(raw), &want); err != nil {
			t.Fatalf("bad test case %q: %v", raw, err)
		}
		var got LocalizeRequest
		if !parseLocalizeRequest([]byte(raw), &got) {
			t.Fatalf("fast parse rejected valid request %q", raw)
		}
		if !sameLocalizeRequest(got, want) {
			t.Fatalf("fast parse of %q: got %+v, want %+v", raw, got, want)
		}
	}
}

// sameLocalizeRequest compares two decodes bit for bit. A nil and an
// empty list are equal: the fast path leaves `"fingerprints":[]` nil
// where encoding/json allocates an empty slice.
func sameLocalizeRequest(a, b LocalizeRequest) bool {
	if a.Model != b.Model || len(a.Fingerprints) != len(b.Fingerprints) {
		return false
	}
	for i := range a.Fingerprints {
		if len(a.Fingerprints[i]) != len(b.Fingerprints[i]) {
			return false
		}
		for j, v := range a.Fingerprints[i] {
			if math.Float64bits(v) != math.Float64bits(b.Fingerprints[i][j]) {
				return false
			}
		}
	}
	return true
}

// FuzzParseLocalizeRequest differentially tests both fast parsers
// against encoding/json, the fallback that defines behavior: whenever a
// fast parse succeeds, json.Unmarshal of the same bytes must succeed and
// decode the same model, deadline and fingerprint bits. A bail-out is
// always safe, since the handler then decodes with encoding/json itself.
// The seed corpus in testdata/fuzz holds the cases of this file's tests.
func FuzzParseLocalizeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var v1 LocalizeRequest
		if parseLocalizeRequest(data, &v1) {
			var want LocalizeRequest
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("/v1 fast parse accepted %q; encoding/json: %v", data, err)
			}
			if !sameLocalizeRequest(v1, want) {
				t.Fatalf("/v1 fast parse of %q: got %+v, want %+v", data, v1, want)
			}
		}
		var v2 localizeRequestV2
		if parseLocalizeRequestV2(data, &v2) {
			var want localizeRequestV2
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("/v2 fast parse accepted %q; encoding/json: %v", data, err)
			}
			if v2.DeadlineMs != want.DeadlineMs || !sameLocalizeRequest(v2.LocalizeRequest, want.LocalizeRequest) {
				t.Fatalf("/v2 fast parse of %q: got %+v, want %+v", data, v2, want)
			}
		}
	})
}

func TestParseLocalizeRequestBailsToSlowPath(t *testing.T) {
	// Inputs the fast scanner must *reject* (not mis-parse): the handler
	// then falls back to encoding/json, which accepts the valid ones.
	for _, raw := range []string{
		`{"model":"a\"b","fingerprints":[[1]]}`,    // escape in string
		`{"model":"m","fingerprints":[[1]],"x":1}`, // unknown key
		`{"model":"m","fingerprints":[[1]]} trail`, // trailing garbage
		`{"model":"m","fingerprints":[["1"]]}`,     // non-number element
		`{"model":"m","fingerprints":[[1],[2],]}`,  // trailing comma
		`{"model":"m"`, // truncated
		`[]`,           // wrong top level
		// Number forms RFC 8259 forbids but strconv.ParseFloat accepts:
		// the fast path must reject them so validation stays identical
		// to the encoding/json fallback.
		`{"model":"m","fingerprints":[[.5]]}`,
		`{"model":"m","fingerprints":[[+1]]}`,
		`{"model":"m","fingerprints":[[01]]}`,
		`{"model":"m","fingerprints":[[1.]]}`,
		`{"model":"m","fingerprints":[[1.5e]]}`,
		`{"model":"m","fingerprints":[[0x1]]}`,
		// Bytes encoding/json treats differently from a verbatim copy: a
		// raw control byte is a syntax error there, and invalid UTF-8
		// becomes U+FFFD.
		"{\"model\":\"a\nb\",\"fingerprints\":[[1]]}",
		"{\"model\":\"a\xffb\",\"fingerprints\":[[1]]}",
	} {
		var req LocalizeRequest
		if parseLocalizeRequest([]byte(raw), &req) {
			t.Fatalf("fast parse accepted %q", raw)
		}
	}
}

func TestAppendLocalizeResponseRoundTrips(t *testing.T) {
	resp := LocalizeResponse{
		Model: "m",
		Results: []Position{
			{X: 1.5, Y: -2.25, Class: 3, Building: 1, Floor: 2},
			{X: math.Pi, Y: 0, Class: 0, Building: 0, Floor: 0},
		},
	}
	raw := appendLocalizeResponse(nil, &resp)
	var back LocalizeResponse
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("hand-encoded response is not valid JSON: %v\n%s", err, raw)
	}
	if !reflect.DeepEqual(back, resp) {
		t.Fatalf("round trip changed the response: %+v != %+v", back, resp)
	}
}

func TestParseLocalizeRequestV2MatchesEncodingJSON(t *testing.T) {
	cases := []string{
		`{"model":"m","fingerprints":[[0.1,0.2]],"deadline_ms":250}`,
		`{"deadline_ms":10,"model":"m","fingerprints":[[1]]}`,
		`{"model":"m","fingerprints":[[1]]}`,                                 // deadline absent
		`{"deadline_ms":5,"deadline_ms":9,"model":"m","fingerprints":[[1]]}`, // last-wins
	}
	for _, raw := range cases {
		var want localizeRequestV2
		if err := json.Unmarshal([]byte(raw), &want); err != nil {
			t.Fatalf("bad test case %q: %v", raw, err)
		}
		var got localizeRequestV2
		if !parseLocalizeRequestV2([]byte(raw), &got) {
			t.Fatalf("fast parse rejected valid /v2 request %q", raw)
		}
		if got.DeadlineMs != want.DeadlineMs || !sameLocalizeRequest(got.LocalizeRequest, want.LocalizeRequest) {
			t.Fatalf("fast parse of %q: got %+v, want %+v", raw, got, want)
		}
	}
	// Forms the fast path must hand to the encoding/json fallback —
	// including integer-VALUED non-integer syntax (2000.0, 1e3), which
	// json.Unmarshal into int64 rejects, so accepting them here would
	// make validation depend on which parser a request hit.
	for _, raw := range []string{
		`{"model":"m","fingerprints":[[1]],"deadline_ms":12.5}`,   // non-integer
		`{"model":"m","fingerprints":[[1]],"deadline_ms":2000.0}`, // integer-valued fraction
		`{"model":"m","fingerprints":[[1]],"deadline_ms":1e3}`,    // exponent
		`{"model":"m","fingerprints":[[1]],"deadline_ms":"10"}`,   // string
		`{"model":"m","fingerprints":[[1]],"deadline":10}`,        // unknown key
	} {
		var req localizeRequestV2
		if parseLocalizeRequestV2([]byte(raw), &req) {
			t.Fatalf("fast parse accepted %q", raw)
		}
	}
	// The /v1 parser must NOT accept the /v2-only key.
	var v1 LocalizeRequest
	if parseLocalizeRequest([]byte(`{"model":"m","fingerprints":[[1]],"deadline_ms":5}`), &v1) {
		t.Fatal("/v1 fast parse accepted deadline_ms")
	}
}

func TestAppendLocalizeResponseV2MatchesEncodingJSON(t *testing.T) {
	resp := LocalizeResponse{
		Model: "m",
		Results: []Position{
			{X: 1.5, Y: -2.25, Class: 3, Building: 1, Floor: 2},
			{X: math.Pi, Y: 0},
		},
	}
	got := appendLocalizeResponseV2(nil, "req-7", &resp)
	want, err := json.Marshal(localizeResponseV2{RequestID: "req-7", Model: resp.Model, Results: resp.Results})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if string(got) != string(want) {
		t.Fatalf("hand-encoded /v2 response differs from encoding/json:\n got %s\nwant %s", got, want)
	}
}
