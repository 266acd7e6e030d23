package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// chopperd's wire codec. A request body in the canonical form — what
// json.Marshal of a Request writes: exact lowercase field names, each once;
// strings with the standard escapes; plain integer literals in range; true
// and false; inputs as arrays of plain unsigned integers — is parsed by
// hand. Any other body is left to encoding/json's Decoder, and the
// fallback is counted. Responses are appended byte for byte as
// json.Encoder writes them. Bodies are read and written in pooled buffers.

// wireBufs pools the body and response buffers; one grown past 1 MiB is
// left to the collector rather than kept.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putWire(b *bytes.Buffer) {
	if b.Cap() <= 1<<20 {
		b.Reset()
		wireBufs.Put(b)
	}
}

// decodeRequest fills req from body. fellBack reports that body was not in
// the canonical form and encoding/json decided it.
func decodeRequest(body []byte, req *Request) (fellBack bool, err error) {
	d := wireDecoder{b: body}
	if d.request(req) {
		return false, nil
	}
	*req = Request{}
	return true, json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// The two-character escapes: escChars[k] is written as '\\', escNames[k].
// json.Encoder writes all but the last, '/', which it leaves bare.
const (
	escChars = "\"\\\b\f\n\r\t/"
	escNames = "\"\\bfnrt/"
)

// wireDecoder parses the canonical request form. Each method reports false
// on anything outside that form; the caller then falls back.
type wireDecoder struct {
	b []byte
	i int
}

// next skips whitespace and reports whether c came next; if it did, it is
// consumed with the whitespace after it.
func (d *wireDecoder) next(c byte) (matched bool) {
	for ; d.i < len(d.b); d.i++ {
		switch b := d.b[d.i]; {
		case b == c && !matched:
			matched = true
		case b != ' ' && b != '\t' && b != '\n' && b != '\r':
			return matched
		}
	}
	return matched
}

// list reads comma-separated members up to the close byte, the opening one
// already consumed, calling member for each.
func (d *wireDecoder) list(close byte, member func() bool) bool {
	if d.next(close) {
		return true
	}
	for member() {
		if !d.next(',') {
			return d.next(close)
		}
	}
	return false
}

// request reads the object; a field name outside the Request's, escaped,
// or seen before, is not canonical.
func (d *wireDecoder) request(req *Request) bool {
	var seen uint16
	ok := d.next('{') && d.list('}', func() bool {
		name, ok := d.quoted()
		if !ok || !d.next(':') {
			return false
		}
		var bit uint16
		switch string(name) {
		case "tenant":
			bit, ok = 1<<0, d.str(&req.Tenant)
		case "class":
			bit, ok = 1<<1, d.str(&req.Class)
		case "source":
			bit, ok = 1<<2, d.str(&req.Source)
		case "target":
			bit, ok = 1<<3, d.str(&req.Target)
		case "opt":
			bit, ok = 1<<4, d.str(&req.Opt)
		case "entry":
			bit, ok = 1<<5, d.str(&req.Entry)
		case "harden":
			bit, ok = 1<<6, d.boolean(&req.Harden)
		case "baseline":
			bit, ok = 1<<7, d.boolean(&req.Baseline)
		case "no_batch":
			bit, ok = 1<<8, d.boolean(&req.NoBatch)
		case "lanes":
			bit, ok = 1<<9, integer(d, &req.Lanes)
		case "trials":
			bit, ok = 1<<10, integer(d, &req.Trials)
		case "seed":
			bit, ok = 1<<11, integer(d, &req.Seed)
		case "inputs":
			bit, ok = 1<<12, d.inputs(&req.Inputs)
		default:
			return false
		}
		ok = ok && seen&bit == 0
		seen |= bit
		return ok
	})
	return ok && d.i == len(d.b)
}

func (d *wireDecoder) boolean(v *bool) bool {
	for _, lit := range [...]string{"false", "true"} {
		if bytes.HasPrefix(d.b[d.i:], []byte(lit)) {
			*v, d.i = lit == "true", d.i+len(lit)
			return true
		}
	}
	return false
}

// digits consumes an integer literal — a minus sign when signed, then
// digits with no leading zero — and returns it, or nil if there is none.
// The caller's next delimiter check turns away a fraction or an exponent.
func (d *wireDecoder) digits(signed bool) []byte {
	start := d.i
	if signed && d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	from := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	if n := d.i - from; n == 0 || n > 1 && d.b[from] == '0' {
		return nil
	}
	return d.b[start:d.i]
}

// integer reads an integer literal, optionally negative, in range of T.
func integer[T int | int64](d *wireDecoder, v *T) bool {
	n, err := strconv.ParseInt(string(d.digits(true)), 10, 64)
	*v = T(n)
	return err == nil && int64(*v) == n
}

// quoted consumes a string literal and returns the raw bytes between its
// quotes: no control byte, valid UTF-8, every backslash followed by a byte.
func (d *wireDecoder) quoted() ([]byte, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, false
	}
	d.i++
	start := d.i
	for ; d.i < len(d.b) && d.b[d.i] != '"'; d.i++ {
		if d.b[d.i] == '\\' {
			d.i++
		} else if d.b[d.i] < 0x20 {
			return nil, false
		}
	}
	if d.i >= len(d.b) {
		return nil, false
	}
	d.i++
	raw := d.b[start : d.i-1]
	return raw, utf8.Valid(raw)
}

// str reads a string. Its escapes are the standard ones, with no \u
// escape of a surrogate (json.Marshal writes raw UTF-8 above U+FFFF).
func (d *wireDecoder) str(s *string) bool {
	raw, ok := d.quoted()
	j := bytes.IndexByte(raw, '\\')
	if !ok || j < 0 {
		*s = string(raw)
		return ok
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for ; j >= 0; j = bytes.IndexByte(raw, '\\') {
		sb.Write(raw[:j])
		if k := strings.IndexByte(escNames, raw[j+1]); k >= 0 {
			sb.WriteByte(escChars[k])
			raw = raw[j+2:]
			continue
		}
		if raw[j+1] != 'u' || len(raw) < j+6 {
			return false
		}
		r, err := strconv.ParseUint(string(raw[j+2:j+6]), 16, 16)
		if err != nil || 0xd800 <= r && r < 0xe000 {
			return false
		}
		sb.WriteRune(rune(r))
		raw = raw[j+6:]
	}
	sb.Write(raw)
	*s = sb.String()
	return true
}

// inputs reads an object of unsigned-integer arrays, each allocated at its
// final length by counting the commas before its closing bracket.
func (d *wireDecoder) inputs(m *map[string][]uint64) bool {
	in := make(map[string][]uint64)
	*m = in
	return d.next('{') && d.list('}', func() bool {
		// Every slice stored is non-nil, so a nil lookup is a new name.
		var name string
		if !d.str(&name) || in[name] != nil || !d.next(':') || !d.next('[') {
			return false
		}
		end := max(bytes.IndexByte(d.b[d.i:], ']'), 0)
		vals := make([]uint64, 0, bytes.Count(d.b[d.i:d.i+end], []byte{','})+1)
		ok := d.list(']', func() bool {
			v, err := strconv.ParseUint(string(d.digits(false)), 10, 64)
			vals = append(vals, v)
			return err == nil
		})
		in[name] = vals
		return ok
	})
}

// wireObject appends one JSON object's members, each after its separator.
type wireObject struct {
	b   []byte
	sep byte
}

func (o *wireObject) key(name string) []byte {
	o.b = append(appendString(append(o.b, o.sep), name), ':')
	o.sep = ','
	return o.b
}

func (o *wireObject) str(name, s string, omitEmpty bool) {
	if s != "" || !omitEmpty {
		o.b = appendString(o.key(name), s)
	}
}

func (o *wireObject) int(name string, n int64, omitEmpty bool) {
	if n != 0 || !omitEmpty {
		o.b = strconv.AppendInt(o.key(name), n, 10)
	}
}

// appendJSON appends r as json.Encoder writes it, field order, omitempty
// and trailing newline included; for a NaN or infinite time it appends
// nothing, as Encode writes nothing.
func (r *Response) appendJSON(b []byte) []byte {
	if math.IsNaN(r.TimeNs) || math.IsInf(r.TimeNs, 0) {
		return b
	}
	o := wireObject{b: b, sep: '{'}
	o.str("tenant", r.Tenant, true)
	o.str("class", r.Class, false)
	o.int("micro_ops", int64(r.MicroOps), false)
	o.str("pipeline", r.Pipeline, false)
	o.str("requested_opt", r.RequestedOpt, false)
	o.str("effective_opt", r.EffectiveOpt, false)
	if r.Degraded {
		o.b = append(o.key("degraded"), "true"...)
	}
	o.str("degraded_reason", r.DegradedReason, true)
	o.int("breaker_level", int64(r.BreakerLevel), true)
	o.str("cache", r.Cache, false)
	o.int("compile_ns", r.CompileNs, false)
	if len(r.Outputs) > 0 {
		// Names sorted; a nil slice is null, an empty one [].
		names := make([]string, 0, 16)
		for name := range r.Outputs {
			names = append(names, name)
		}
		slices.Sort(names)
		out := wireObject{b: o.key("outputs"), sep: '{'}
		for _, name := range names {
			vals := r.Outputs[name]
			if vals == nil {
				out.b = append(out.key(name), "null"...)
				continue
			}
			b := append(out.key(name), '[')
			for i, v := range vals {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendUint(b, v, 10)
			}
			out.b = append(b, ']')
		}
		o.b = append(out.b, '}')
	}
	if r.TimeNs != 0 {
		// As ES6 number to string: 'e' outside [1e-6, 1e21), with the
		// exponent's leading zero cut.
		format := byte('f')
		if abs := math.Abs(r.TimeNs); abs < 1e-6 || abs >= 1e21 {
			format = 'e'
		}
		b := strconv.AppendFloat(o.key("time_ns"), r.TimeNs, format, -1, 64)
		if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2], b = b[n-1], b[:n-1]
		}
		o.b = b
	}
	if r.VerifyOK != nil {
		o.b = strconv.AppendBool(o.key("verify_ok"), *r.VerifyOK)
	}
	o.str("verify_detail", r.VerifyDetail, true)
	o.int("trials", int64(r.Trials), true)
	o.int("batch_size", int64(r.BatchSize), true)
	return append(o.b, "}\n"...)
}

func (e *ErrorResponse) appendJSON(b []byte) []byte {
	b = appendString(append(b, `{"error":`...), e.Error)
	return append(appendString(append(b, `,"error_class":`...), e.ErrorClass), "}\n"...)
}

// appendString quotes s as encoding/json does with HTML escaping on: <, >
// and & as \u00XX, U+2028 and U+2029 escaped, invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i, r := range s {
		switch {
		case r >= ' ' && r < utf8.RuneSelf && r != '"' && r != '\\' && r != '<' && r != '>' && r != '&':
			b = append(b, byte(r))
		case r < utf8.RuneSelf && strings.IndexByte(escChars[:7], byte(r)) >= 0:
			b = append(b, '\\', escNames[strings.IndexByte(escChars, byte(r))])
		case r < utf8.RuneSelf || r == '\u2028' || r == '\u2029':
			b = append(b, '\\', 'u', hex[r>>12], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		case r == utf8.RuneError && !strings.HasPrefix(s[i:], "\ufffd"):
			b = append(b, `\ufffd`...)
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}
