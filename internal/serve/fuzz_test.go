package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"chopper"
)

// FuzzHandler feeds arbitrary bodies to the three work endpoints of a
// server with tight budgets and deadlines: whatever the input, the answer
// is a success, a client error or a timeout — never a 5xx, which is also
// what a recovered panic would answer.
func FuzzHandler(f *testing.F) {
	const run = `{"source":"node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel","lanes":2,"inputs":{"a":[1,2],"b":[3,4]}`
	for _, seed := range []struct {
		kind uint8
		body string
	}{
		{0, `{"source":"node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel"}`},
		{1, run + `}`},
		{2, `{"source":"node main(a: u8, b: u8) returns (z: u8) let z = a + b; tel","trials":2,"seed":7}`},
		{0, ``},
		{1, `{"source":"node main(a: u8`},
		{1, run + `,"lanes":9223372036854775807}`},
		{2, `{"source":"node main(a: u8) returns (z: u8) let z = a; tel","trials":1000000000000}`},
		{0, `{"source":"node main(a: u8) returns (z: u8) let z = a; tel","class":"gold"}`},
		{0, `{"source":"node main(a: u8) returns (z: u8) let z = a; tel","target":"hbm"}`},
		{2, `{"source":"node main(a: u8) returns (z: u8) let z = a; tel","opt":"turbo"}`},
		{1, `{"source":"node main(a: u65) returns (z: u8) let z = u8(a); tel","lanes":1,"inputs":{"a":[1]}}`},
		{1, `{"source":"node main(a: u8) returns (z: u8) let z = a; tel","lanes":1,"inputs":{"a":[18446744073709551616]}}`},
	} {
		f.Add(seed.kind, []byte(seed.body))
	}

	var cfg Config
	for c := Class(0); c < numClasses; c++ {
		cc := DefaultClassConfig(c)
		cc.Deadline = 200 * time.Millisecond
		cc.Budget = chopper.Budget{MaxNetGates: 1 << 12, MaxMicroOps: 1 << 13, MaxSimSteps: 1 << 16, MaxDRAMCommands: 1 << 16}
		cfg.Classes[c] = cc
	}
	cfg.MaxBodyBytes, cfg.MaxLanes, cfg.MaxVerifyTrials = 1<<16, 256, 8
	h := New(cfg).Handler()
	kinds := [...]string{"compile", "run", "verify"}

	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+kinds[int(kind)%len(kinds)], bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("/v1/%s answered %d: %s", kinds[int(kind)%len(kinds)], rec.Code, rec.Body.String())
		}
	})
}
