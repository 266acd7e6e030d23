package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"chopper"
	"chopper/internal/workloads"
)

const mac16Src = "node main(a: u16, b: u16) returns (z: u16) let z = a * b + a; tel"

// paperKernels are the Table-II kernels the mixed service workload sends.
var paperKernels = []string{"DenseNet-16", "WTC-64", "DiffGen-64", "SW-64"}

// runInputs draws lanes values per input, each within the input's width.
func runInputs(rng *rand.Rand, inputs []chopper.IOSpec, lanes int) map[string][]uint64 {
	out := make(map[string][]uint64, len(inputs))
	for _, in := range inputs {
		vals := make([]uint64, lanes)
		for l := range vals {
			vals[l] = rng.Uint64()
			if in.Width < 64 {
				vals[l] &= 1<<in.Width - 1
			}
		}
		out[in.Name] = vals
	}
	return out
}

// hotKeyBody is one request of the identical-key workload: a 16-bit MAC
// run on 8 lanes.
func hotKeyBody(t testing.TB, rng *rand.Rand) []byte {
	body, err := json.Marshal(&Request{
		Tenant: "tenant-0", Class: Batch.String(), Source: mac16Src, Lanes: 8,
		Inputs: runInputs(rng, []chopper.IOSpec{{Name: "a", Width: 16}, {Name: "b", Width: 16}}, 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// workloadBodies builds request bodies as both service workloads build
// them — json.Marshal of a Request: hot-key MAC runs, and compile, run and
// verify requests of the tiny and paper-kernel sources and of per-request
// unique sources, over every class and four tenants.
func workloadBodies(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(1))
	bodies := [][]byte{hotKeyBody(t, rng), hotKeyBody(t, rng)}
	srcs := []string{addSrc, mulSrc, mac16Src, "node main(a: u16, b: u16) returns (z: u16) let z = (a ^ 7:u16) + b; tel"}
	for _, name := range paperKernels {
		spec, ok := workloads.Get(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		srcs = append(srcs, spec.Src)
	}
	for i, src := range srcs {
		k, err := chopper.Compile(src, chopper.Options{Target: chopper.Ambit})
		if err != nil {
			t.Fatal(err)
		}
		class := Class(i % int(numClasses))
		for j, kind := range []string{"compile", "run", "verify"} {
			req := &Request{Tenant: fmt.Sprintf("tenant-%d", (i+j)%4), Class: class.String(), Source: src}
			switch kind {
			case "run":
				req.Lanes, req.Inputs = 64, runInputs(rng, k.Inputs, 64)
			case "verify":
				req.Trials, req.Seed = 2, int64(1+j)
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// encodeRef is json.Encoder's output for v, nothing when Encode fails.
func encodeRef(v any) []byte {
	var buf bytes.Buffer
	if json.NewEncoder(&buf).Encode(v) != nil {
		return nil
	}
	return buf.Bytes()
}

// fuzzResponse spreads s over every string field of a Response; mode picks
// VerifyOK (nil, false, true), degradation and the outputs (absent, an
// empty map, or a map holding a nil and an empty slice).
func fuzzResponse(s string, timeNs float64, mode uint8) *Response {
	r := &Response{
		Tenant: s, Class: s, MicroOps: int(mode) << 20, Pipeline: "chopper", RequestedOpt: s,
		EffectiveOpt: "full", Cache: "hit", CompileNs: -int64(mode), TimeNs: timeNs,
	}
	if mode&1 != 0 {
		r.Degraded, r.DegradedReason, r.BreakerLevel = true, s, int(mode>>5)
		r.VerifyDetail, r.Trials, r.BatchSize = s, 3, 8
	}
	if v := mode >> 1 & 3; v != 0 {
		ok := v == 2
		r.VerifyOK = &ok
	}
	switch mode >> 3 & 3 {
	case 1:
		r.Outputs = map[string][]uint64{}
	case 2, 3:
		r.Outputs = map[string][]uint64{s: {0, math.MaxUint64}, "z": nil, "": {}, s + "<": {uint64(mode)}}
	}
	return r
}

// FuzzWireCodec holds the codec to encoding/json. Requests: a body the
// canonical path accepts is one encoding/json accepts, decoded DeepEqual,
// so a body encoding/json rejects is one the canonical path declines.
// Responses and error responses: writeJSON writes exactly json.Encoder's
// bytes, and nothing where Encode fails.
func FuzzWireCodec(f *testing.F) {
	bodies := workloadBodies(f)
	const run = `{"source":"node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel","lanes":2,"inputs":{"a":[1,2],"b":[3,4]}`
	for _, b := range []string{
		// FuzzHandler's corpus.
		`{"source":"node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"}`,
		run + `}`,
		`{"source":"node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel","trials":2,"seed":7}`,
		``,
		`{"source":"node main(a: u8`,
		run + `,"lanes":9223372036854775807}`,
		`{"source":"node main(a: u8) returns (z: u8) let z = a; tel","trials":1000000000000}`,
		`{"source":"node main(a: u8) returns (z: u8) let z = a; tel","class":"gold"}`,
		`{"source":"node main(a: u8) returns (z: u8) let z = a; tel","target":"hbm"}`,
		`{"source":"node main(a: u8) returns (z: u8) let z = a; tel","opt":"turbo"}`,
		`{"source":"node main(a: u65) returns (z: u8) let z = u8(a); tel","lanes":1,"inputs":{"a":[1]}}`,
		`{"source":"node main(a: u8) returns (z: u8) let z = a; tel","lanes":1,"inputs":{"a":[18446744073709551616]}}`,
		// Shapes the canonical path declines.
		`{"Source":"x"}`, `{"tenant":null,"source":"x"}`, `{"lanes":1.5}`, `{"lanes":1e2}`, `{"seed":-0}`,
		`{"source":"\ud800"}`, `{"source":"\ud83d\ude00\u003e\n\/"}`, `{"source":"x","source":"y"}`,
		"{\"source\":\"\xff\"}", `{"inputs":{"a":[],"a":[1]}}`, `{"inputs":{"a":[1,]}}`, `{"inputs":{"a":[01]}}`,
		`{"source":"x"} trailing`, ` {"harden":true,"baseline":false,"no_batch":true} `, `null`, `{}`,
		`{"lanes":-9223372036854775808,"trials":-1}`, `{"inputs":{"\u0061":[0 , 1]}}`, `{"sourc\u0065":"x"}`,
		`{ "source" : " x\t" , "inputs" : { " a" : [ 1 , 2 ] } }`,
		`{"inputs":{"a":[1]},"inputs":{"b":[2]}}`, "{\"source\":\"a\x01b\nc\"}",
	} {
		bodies = append(bodies, []byte(b))
	}
	strs := []string{"tenant-0", `q"uo\te`, "<a>&b", "\x00\x01\x1f\b\f\n\r\t\x7f", "bad\xff\xfeutf8", "\u2028sep\u2029", "é中😀", ""}
	times := []float64{0, 1e-7, 1e21, math.NaN(), math.Inf(-1), 184320, math.Copysign(0, -1), 413262.76, 1e-6, 9.99e20, 1.5e-300}
	for i := 0; i < max(len(bodies), len(strs)*len(times)); i++ {
		f.Add(bodies[i%len(bodies)], strs[i%len(strs)], times[i%len(times)], uint8(i))
	}

	f.Fuzz(func(t *testing.T, body []byte, s string, timeNs float64, mode uint8) {
		var fast, ref Request
		d := wireDecoder{b: body}
		if d.request(&fast) {
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ref); err != nil {
				t.Fatalf("canonical path accepted %q; encoding/json rejects it: %v", body, err)
			}
			if !reflect.DeepEqual(fast, ref) {
				t.Fatalf("body %q: canonical path decoded %#v, encoding/json %#v", body, fast, ref)
			}
		}
		for _, v := range []wireValue{fuzzResponse(s, timeNs, mode), &ErrorResponse{Error: s, ErrorClass: s}} {
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, v)
			if want := encodeRef(v); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%T:\n got %q\nwant %q", v, rec.Body.Bytes(), want)
			}
		}
	})
}

// TestCodecAllocGate: a warm encode of the hot-key response allocates
// nothing, and a warm decode of the hot-key body allocates exactly what
// the Request keeps — its strings, the inputs map and one slice per input.
func TestCodecAllocGate(t *testing.T) {
	body := hotKeyBody(t, rand.New(rand.NewSource(1)))
	var req Request
	decodes := testing.AllocsPerRun(200, func() {
		req = Request{}
		if fellBack, err := decodeRequest(body, &req); fellBack || err != nil {
			t.Fatalf("hot-key body fell back (%v) or failed: %v", fellBack, err)
		}
	})
	// Each kept string is made from bytes as the decoder makes it, so a
	// one-byte name costs what it costs there (nothing).
	fromBytes := func(s string) string { return string([]byte(s)) }
	var kept Request
	keeps := testing.AllocsPerRun(200, func() {
		kept = Request{Tenant: fromBytes(req.Tenant), Class: fromBytes(req.Class), Source: fromBytes(req.Source), Inputs: make(map[string][]uint64)}
		for name, vals := range req.Inputs {
			kept.Inputs[fromBytes(name)] = slices.Clone(vals)
		}
	})
	if decodes != keeps {
		t.Errorf("warm decode of the hot-key body: %v allocs, the Request keeps %v", decodes, keeps)
	}

	resp := &Response{
		Tenant: "tenant-0", Class: "batch", MicroOps: 5285, Pipeline: "chopper", RequestedOpt: "rename",
		EffectiveOpt: "rename", Cache: "hit", CompileNs: 1834, TimeNs: 413262.76, BatchSize: 8,
		Outputs: map[string][]uint64{"z": {1, 65535, 3, 4, 5, 6, 7, 8}},
	}
	// The buffer is reused directly, not through wireBufs: under the race
	// detector sync.Pool drops items at random.
	var buf []byte
	encodes := testing.AllocsPerRun(200, func() { buf = resp.appendJSON(buf[:0]) })
	if encodes != 0 {
		t.Errorf("warm encode of the hot-key response: %v allocs, want 0", encodes)
	}
	t.Logf("hot-key body %d B: decode %v allocs (kept %v), encode %v", len(body), decodes, keeps, encodes)
}

// TestDecodeFallbackCounted: a canonical body takes the hand-written path
// and leaves chopperd_fallback_total at 0; a case-variant key and a null
// field each fall back to encoding/json — the request still succeeds — and
// each add 1. No body either service workload builds falls back.
func TestDecodeFallbackCounted(t *testing.T) {
	h := New(Config{}).Handler()
	const series = `chopperd_fallback_total{kind="json_decode"}`
	for i, c := range []struct{ body, want string }{
		{`{"tenant":"t","source":"` + addSrc + `"}`, "0"},
		{`{"tenant":"t","Source":"` + addSrc + `"}`, "1"},
		{`{"tenant":null,"source":"` + addSrc + `"}`, "2"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(c.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := fmt.Sprint(scrape(t, h)[series]); got != c.want {
			t.Errorf("after body %d (%s): %s = %s, want %s", i, c.body, series, got, c.want)
		}
	}

	// Also outside the canonical form, though encoding/json decodes some of
	// them as the hand-written path would: a repeated key or input name,
	// data after the object, a surrogate pair, a raw control byte.
	for _, body := range []string{
		`{"source":"x","source":"y"}`, `{"inputs":{"a":[1],"a":[2]}}`, `{"source":"x"} {}`,
		`{"source":"\ud83d\ude00"}`, "{\"source\":\"a\x01\"}",
	} {
		if fellBack, _ := decodeRequest([]byte(body), new(Request)); !fellBack {
			t.Errorf("non-canonical body %q took the hand-written path", body)
		}
	}

	bodies := workloadBodies(t)
	fell := 0
	for _, body := range bodies {
		var req Request
		fellBack, err := decodeRequest(body, &req)
		if err != nil {
			t.Fatal(err)
		}
		if fellBack {
			fell++
			t.Errorf("workload body fell back: %.200s", body)
		}
	}
	t.Logf("workload bodies: %d of %d fell back (%.1f %%)", fell, len(bodies), 100*float64(fell)/float64(len(bodies)))
}

// TestMaxBodyBytesBoundsWholeBody: a body over the limit is a 400 whether
// its JSON value runs past the limit or ends inside it with the excess
// after it.
func TestMaxBodyBytesBoundsWholeBody(t *testing.T) {
	const limit = 256
	h := New(Config{MaxBodyBytes: limit}).Handler()
	value := `{"source":"` + addSrc + `"}`
	for name, body := range map[string]string{
		"value ends early": value + strings.Repeat(" ", limit),
		"value too long":   `{"source":"` + addSrc + strings.Repeat(" ", limit) + `"}`,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(body)))
		var er ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s: status %d, body %q: %v", name, rec.Code, rec.Body.String(), err)
		}
		if rec.Code != http.StatusBadRequest || er.ErrorClass != "options" || er.Error != "bad request body: http: request body too large" {
			t.Errorf("%s: %d %+v, want 400 options \"bad request body: http: request body too large\"", name, rec.Code, er)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(value+strings.Repeat(" ", limit-len(value)))))
	if rec.Code != http.StatusOK {
		t.Errorf("a body of exactly the limit: status %d: %s", rec.Code, rec.Body.String())
	}
}
