package serve

import (
	"strconv"
	"unsafe"
)

// Hand-rolled JSON fast paths for the localize hot loop. At production
// request rates the reflection-driven encoding/json machinery costs more
// CPU than the batched forward pass itself (measured ~40% of server CPU
// at 7k req/s), so the exact request shape
// {"model":"...","fingerprints":[[...],...]} is parsed by a small
// scanner. Anything it does not recognize — escapes, control or
// non-ASCII bytes in strings, unknown keys, unexpected nesting — makes
// it bail out and the caller falls back to encoding/json, keeping
// behavior identical for every valid request.

// parseLocalizeRequest attempts the fast parse of data into req,
// reporting whether it succeeded. On false the caller must re-parse with
// encoding/json (req may be partially filled).
func parseLocalizeRequest(data []byte, req *LocalizeRequest) bool {
	return parseLocalizeFields(data, req, nil)
}

// parseLocalizeRequestV2 is the /v2 fast parse: the /v1 shape plus the
// optional integer "deadline_ms" key.
func parseLocalizeRequestV2(data []byte, req *localizeRequestV2) bool {
	return parseLocalizeFields(data, &req.LocalizeRequest, &req.DeadlineMs)
}

// parseLocalizeFields is the shared scanner loop. deadlineMs non-nil
// additionally accepts the /v2 "deadline_ms" key (integer values only —
// anything else bails to the encoding/json fallback, which rejects it).
func parseLocalizeFields(data []byte, req *LocalizeRequest, deadlineMs *int64) bool {
	p := &scanner{buf: data}
	if !p.expect('{') {
		return false
	}
	for {
		key, ok := p.simpleString()
		if !ok || !p.expect(':') {
			return false
		}
		switch key {
		case "model":
			if req.Model, ok = p.simpleString(); !ok {
				return false
			}
		case "deadline_ms":
			if deadlineMs == nil {
				return false
			}
			v, ok := p.integer()
			if !ok {
				return false
			}
			*deadlineMs = v // duplicate keys are last-wins, like encoding/json
		case "fingerprints":
			req.Fingerprints = nil // duplicate keys are last-wins, like encoding/json
			if !p.expect('[') {
				return false
			}
			if p.peek() == ']' {
				p.pos++
			} else {
				for {
					fp, ok := p.floatArray()
					if !ok {
						return false
					}
					req.Fingerprints = append(req.Fingerprints, fp)
					if p.peek() == ',' {
						p.pos++
						continue
					}
					break
				}
				if !p.expect(']') {
					return false
				}
			}
		default:
			return false // unknown key: let encoding/json decide
		}
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if !p.expect('}') {
		return false
	}
	p.skipSpace()
	return p.pos == len(p.buf)
}

// appendLocalizeResponse renders the /v1 resp without reflection. The
// output is identical in structure to encoding/json's (shortest
// round-trip float formatting).
func appendLocalizeResponse(b []byte, resp *LocalizeResponse) []byte {
	b = append(b, `{"model":`...)
	b = strconv.AppendQuote(b, resp.Model)
	return appendLocalizeResults(b, resp.Results)
}

// appendLocalizeResponseV2 renders the /v2 response: the /v1 body with
// the request_id field first, byte-identical to encoding/json of
// localizeResponseV2.
func appendLocalizeResponseV2(b []byte, reqID string, resp *LocalizeResponse) []byte {
	b = append(b, `{"request_id":`...)
	b = strconv.AppendQuote(b, reqID)
	b = append(b, `,"model":`...)
	b = strconv.AppendQuote(b, resp.Model)
	return appendLocalizeResults(b, resp.Results)
}

// appendLocalizeResults renders the shared `,"results":[...]}` tail.
func appendLocalizeResults(b []byte, results []Position) []byte {
	b = append(b, `,"results":[`...)
	for i := range results {
		r := &results[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"x":`...)
		b = appendJSONFloat(b, r.X)
		b = append(b, `,"y":`...)
		b = appendJSONFloat(b, r.Y)
		b = append(b, `,"class":`...)
		b = strconv.AppendInt(b, int64(r.Class), 10)
		b = append(b, `,"building":`...)
		b = strconv.AppendInt(b, int64(r.Building), 10)
		b = append(b, `,"floor":`...)
		b = strconv.AppendInt(b, int64(r.Floor), 10)
		b = append(b, '}')
	}
	b = append(b, ']', '}', '\n')
	return b
}

// appendJSONFloat formats a float as a JSON number (shortest form that
// round-trips, like encoding/json for the values produced here).
func appendJSONFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// scanner is a minimal JSON tokenizer over a byte slice.
type scanner struct {
	buf []byte
	pos int
}

func (p *scanner) skipSpace() {
	for p.pos < len(p.buf) {
		switch p.buf[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it (0 at EOF).
func (p *scanner) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.buf) {
		return 0
	}
	return p.buf[p.pos]
}

// expect consumes c, reporting whether it was next.
func (p *scanner) expect(c byte) bool {
	if p.peek() != c {
		return false
	}
	p.pos++
	return true
}

// simpleString parses a quoted string of plain ASCII. Anything else
// bails out to the slow path: a backslash (escape sequences), a raw
// control byte (which encoding/json rejects), and any byte >= 0x80
// (encoding/json replaces invalid UTF-8 with U+FFFD, so copying the
// bytes verbatim could disagree with it).
func (p *scanner) simpleString() (string, bool) {
	if !p.expect('"') {
		return "", false
	}
	start := p.pos
	for ; p.pos < len(p.buf); p.pos++ {
		switch c := p.buf[p.pos]; {
		case c == '"':
			s := string(p.buf[start:p.pos])
			p.pos++
			return s, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return "", false
		}
	}
	return "", false
}

// floatArray parses a [n, n, ...] array of JSON numbers.
func (p *scanner) floatArray() ([]float64, bool) {
	if !p.expect('[') {
		return nil, false
	}
	out := make([]float64, 0, 64)
	if p.peek() == ']' {
		p.pos++
		return out, true
	}
	for {
		v, ok := p.number()
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if !p.expect(']') {
		return nil, false
	}
	return out, true
}

// number parses one JSON number token. The grammar check matters:
// strconv.ParseFloat accepts forms JSON forbids (leading '+', bare '.5',
// '1.', leading zeros), and accepting them here would make validation
// depend on which parser a request happened to hit — so anything outside
// the RFC 8259 grammar bails to the encoding/json fallback, which
// rejects it.
func (p *scanner) number() (float64, bool) {
	p.skipSpace()
	start := p.pos
	if !p.jsonNumber() {
		return 0, false
	}
	// Zero-copy view of the number token: ParseFloat does not retain its
	// argument, and p.buf is not mutated, so the unsafe.String is sound.
	// This avoids one small allocation per number — hundreds per
	// fingerprint — which at serving rates is real GC pressure.
	tok := unsafe.String(&p.buf[start], p.pos-start)
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// integer parses one JSON number token that is syntactically an
// integer — no fraction or exponent. The syntax check matters:
// encoding/json rejects 1500.0 and 1e3 when decoding into int64, and
// accepting them here would make validation depend on which parser a
// request happened to hit — so anything non-integer bails to the
// fallback, which rejects it.
func (p *scanner) integer() (int64, bool) {
	p.skipSpace()
	start := p.pos
	if !p.jsonNumber() {
		return 0, false
	}
	tok := p.buf[start:p.pos]
	for _, c := range tok {
		if c == '.' || c == 'e' || c == 'E' {
			return 0, false
		}
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// jsonNumber consumes one number matching the RFC 8259 grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (p *scanner) jsonNumber() bool {
	digits := func() int {
		n := 0
		for p.pos < len(p.buf) && p.buf[p.pos] >= '0' && p.buf[p.pos] <= '9' {
			p.pos++
			n++
		}
		return n
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '-' {
		p.pos++
	}
	switch {
	case p.pos >= len(p.buf):
		return false
	case p.buf[p.pos] == '0':
		p.pos++ // a leading zero must stand alone
	case p.buf[p.pos] >= '1' && p.buf[p.pos] <= '9':
		digits()
	default:
		return false
	}
	if p.pos < len(p.buf) && p.buf[p.pos] == '.' {
		p.pos++
		if digits() == 0 {
			return false
		}
	}
	if p.pos < len(p.buf) && (p.buf[p.pos] == 'e' || p.buf[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.buf) && (p.buf[p.pos] == '+' || p.buf[p.pos] == '-') {
			p.pos++
		}
		if digits() == 0 {
			return false
		}
	}
	return true
}
