package ocd

// Request decoding for the snapshot read plane.
//
// encoding/json cannot decode into a struct without allocating, so the
// hot path uses a hand-rolled parser for the two read-request shapes
// (FilterRequest, PrioritizeRequest). The parser is deliberately
// narrow: it accepts only the common wire form — a JSON object with
// known keys, raw ASCII strings, numbers — and DECLINES everything
// else by returning false, routing the body through strictDecode,
// which replays the reference json.Decoder pipeline over the same
// bytes. Declining is always safe: the fallback produces the exact
// response (success or error, byte for byte) post() would,
// so the fast parser only ever has to be right about inputs it
// accepts, never about how to reject inputs it does not understand.
//
// Where the fast path does accept, it must agree with encoding/json
// exactly:
//   - duplicate keys: later values win field-by-field (the parser
//     writes into the same struct without resetting, so a repeated
//     "vm" object merges per-field just as json.Unmarshal does);
//   - numbers: validated against the JSON grammar (no leading zeros,
//     no bare '-', digits after '.' and 'e'), then converted with the
//     same strconv calls encoding/json uses, so float values are
//     bit-identical; int-typed fields with a fraction or exponent are
//     declined so the fallback can produce json's own type error;
//   - strings: only raw ASCII without escapes is accepted (anything
//     else is declined), and the known values ("v1", class names) are
//     interned so decoding allocates nothing.
//
// TestDecodeFastMatchesStrict differentially pins the whole contract
// against encoding/json over valid and malformed corpora, and
// FuzzDecodeFastMatchesStrict extends it to fuzzed inputs. Why the
// parser exists at all (strict decoding breaks the read plane's
// 0 allocs/request budget) is recorded in DESIGN.md "Request decoding".

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"unsafe"

	"immersionoc/internal/api"
)

// strictDecode replays post()'s reference decode pipeline over the
// buffered body: the fallback for any input the fast parser declines,
// and the single source of truth for decode error responses. Returns
// false with the error response written.
func strictDecode[Req any](w http.ResponseWriter, body []byte, req *Req) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		writeError(w, http.StatusBadRequest, "trailing data after JSON document")
		return false
	}
	return true
}

// bstr views b as a string without copying. Safe here: the string is
// only passed to strconv parse functions, which do not retain their
// argument (they clone it into any error they build), and b outlives
// every call.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// internVersion maps the version bytes to an interned string; unknown
// versions allocate, but they are about to become an error response.
func internVersion(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if string(b) == api.Version {
		return api.Version
	}
	return string(b)
}

// internClass maps the class bytes to an interned string; unknown
// classes allocate on their way into an "unknown class" error.
func internClass(b []byte) string {
	switch {
	case len(b) == 0:
		return ""
	case string(b) == "regular":
		return "regular"
	case string(b) == "high-perf":
		return "high-perf"
	case string(b) == "harvest":
		return "harvest"
	}
	return string(b)
}

var (
	keyVersion  = []byte("version")
	keyVM       = []byte("vm")
	keyServers  = []byte("servers")
	keyID       = []byte("id")
	keyVCores   = []byte("vcores")
	keyMemoryGB = []byte("memory_gb")
	keyClass    = []byte("class")
	keyAvgUtil  = []byte("avg_util")
	keyScalable = []byte("scalable_fraction")
)

// jsParser is a cursor over one buffered request body. Every method
// reports ok=false on anything outside the accepted subset; callers
// propagate that straight to the strict fallback.
type jsParser struct {
	b   []byte
	pos int
}

func (p *jsParser) ws() {
	for p.pos < len(p.b) {
		switch p.b[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsParser) eat(c byte) bool {
	if p.pos < len(p.b) && p.b[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// rawString accepts only printable-ASCII strings with no escapes, so
// the bytes between the quotes ARE the value.
func (p *jsParser) rawString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for p.pos < len(p.b) {
		c := p.b[p.pos]
		if c == '"' {
			s := p.b[start:p.pos]
			p.pos++
			return s, true
		}
		if c == '\\' || c < 0x20 || c >= 0x80 {
			return nil, false
		}
		p.pos++
	}
	return nil, false
}

// number scans one token of the JSON number grammar (RFC 8259: no
// leading zeros, no bare '-', at least one digit after '.' or an
// exponent marker), reporting whether it stayed integral.
func (p *jsParser) number() (tok []byte, isInt, ok bool) {
	start := p.pos
	p.eat('-')
	if p.pos >= len(p.b) || p.b[p.pos] < '0' || p.b[p.pos] > '9' {
		return nil, false, false
	}
	if p.b[p.pos] == '0' {
		p.pos++
	} else {
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			p.pos++
		}
	}
	isInt = true
	if p.pos < len(p.b) && p.b[p.pos] == '.' {
		isInt = false
		p.pos++
		n := 0
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			p.pos++
			n++
		}
		if n == 0 {
			return nil, false, false
		}
	}
	if p.pos < len(p.b) && (p.b[p.pos] == 'e' || p.b[p.pos] == 'E') {
		isInt = false
		p.pos++
		if p.pos < len(p.b) && (p.b[p.pos] == '+' || p.b[p.pos] == '-') {
			p.pos++
		}
		n := 0
		for p.pos < len(p.b) && p.b[p.pos] >= '0' && p.b[p.pos] <= '9' {
			p.pos++
			n++
		}
		if n == 0 {
			return nil, false, false
		}
	}
	return p.b[start:p.pos], isInt, true
}

// intVal parses an int-typed field. A fraction or exponent is
// declined — encoding/json rejects those with a type error the strict
// fallback must produce.
func (p *jsParser) intVal() (int, bool) {
	tok, isInt, ok := p.number()
	if !ok || !isInt {
		return 0, false
	}
	n, err := strconv.Atoi(bstr(tok))
	if err != nil {
		return 0, false
	}
	return n, true
}

// floatVal parses a float64-typed field with the same strconv call
// encoding/json's literalStore uses, so values are bit-identical.
func (p *jsParser) floatVal() (float64, bool) {
	tok, _, ok := p.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(bstr(tok), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// vmSpec parses a VMSpec object in place (no reset: duplicate "vm"
// keys merge field-by-field, as encoding/json does). Unknown keys,
// null, and escaped strings are declined.
func (p *jsParser) vmSpec(v *api.VMSpec) bool {
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return true
	}
	for {
		key, ok := p.rawString()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch {
		case bytes.Equal(key, keyID):
			n, ok := p.intVal()
			if !ok {
				return false
			}
			v.ID = n
		case bytes.Equal(key, keyVCores):
			n, ok := p.intVal()
			if !ok {
				return false
			}
			v.VCores = n
		case bytes.Equal(key, keyMemoryGB):
			f, ok := p.floatVal()
			if !ok {
				return false
			}
			v.MemoryGB = f
		case bytes.Equal(key, keyClass):
			s, ok := p.rawString()
			if !ok {
				return false
			}
			v.Class = internClass(s)
		case bytes.Equal(key, keyAvgUtil):
			f, ok := p.floatVal()
			if !ok {
				return false
			}
			v.AvgUtil = f
		case bytes.Equal(key, keyScalable):
			f, ok := p.floatVal()
			if !ok {
				return false
			}
			v.ScalableFraction = f
		default:
			return false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		return p.eat('}')
	}
}

// end requires only trailing whitespace past the document, matching
// the strict pipeline's trailing-data check.
func (p *jsParser) end() bool {
	p.ws()
	return p.pos == len(p.b)
}

// parseFilterRequest is the allocation-free decode of a FilterRequest.
// It returns false — leaving req in an undefined partial state — for
// any input outside the accepted subset; the caller resets req and
// falls back to strictDecode.
func parseFilterRequest(body []byte, req *api.FilterRequest) bool {
	p := jsParser{b: body}
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return p.end()
	}
	for {
		key, ok := p.rawString()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch {
		case bytes.Equal(key, keyVersion):
			s, ok := p.rawString()
			if !ok {
				return false
			}
			req.Vers = internVersion(s)
		case bytes.Equal(key, keyVM):
			if !p.vmSpec(&req.VM) {
				return false
			}
		default:
			return false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if !p.eat('}') {
			return false
		}
		return p.end()
	}
}

// parsePrioritizeRequest is the allocation-free decode of a
// PrioritizeRequest, appending server indices into the request's
// reused Servers slice. Same decline-to-fallback contract as
// parseFilterRequest.
func parsePrioritizeRequest(body []byte, req *api.PrioritizeRequest) bool {
	p := jsParser{b: body}
	p.ws()
	if !p.eat('{') {
		return false
	}
	p.ws()
	if p.eat('}') {
		return p.end()
	}
	for {
		key, ok := p.rawString()
		if !ok {
			return false
		}
		p.ws()
		if !p.eat(':') {
			return false
		}
		p.ws()
		switch {
		case bytes.Equal(key, keyVersion):
			s, ok := p.rawString()
			if !ok {
				return false
			}
			req.Vers = internVersion(s)
		case bytes.Equal(key, keyVM):
			if !p.vmSpec(&req.VM) {
				return false
			}
		case bytes.Equal(key, keyServers):
			if !p.eat('[') {
				return false
			}
			// A repeated "servers" key replaces the previous contents,
			// matching json.Unmarshal's decode-into-slice semantics.
			req.Servers = req.Servers[:0]
			p.ws()
			if p.eat(']') {
				break
			}
			for {
				n, ok := p.intVal()
				if !ok {
					return false
				}
				req.Servers = append(req.Servers, n)
				p.ws()
				if p.eat(',') {
					p.ws()
					continue
				}
				if !p.eat(']') {
					return false
				}
				break
			}
		default:
			return false
		}
		p.ws()
		if p.eat(',') {
			p.ws()
			continue
		}
		if !p.eat('}') {
			return false
		}
		return p.end()
	}
}
