package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/platform"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPPlanRoundTrip(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	p := smallPlatform(t, 51)
	req := PlanRequest{Platform: p, Source: 0}

	resp, body := postJSON(t, srv, "/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first planEnvelope
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first plan reported cached")
	}

	resp, body = postJSON(t, srv, "/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var second planEnvelope
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("repeated plan not served from cache")
	}
	if !bytes.Equal(first.Plan, second.Plan) {
		t.Error("cached plan subdocument is not byte-identical")
	}

	var plan Plan
	if err := json.Unmarshal(first.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Throughput <= 0 || plan.Fingerprint == "" {
		t.Errorf("plan = %+v, want positive throughput and a fingerprint", plan)
	}

	// Delta request against the returned fingerprint.
	resp, body = postJSON(t, srv, "/v1/plan", map[string]interface{}{
		"base":   plan.Fingerprint,
		"deltas": []map[string]interface{}{{"kind": 0, "link": 0, "factor": 2.0}},
		"source": 0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta plan status %d: %s", resp.StatusCode, body)
	}
	var mut planEnvelope
	if err := json.Unmarshal(body, &mut); err != nil {
		t.Fatal(err)
	}
	if !mut.Warm {
		t.Error("delta plan did not take the warm-session path")
	}
}

func TestHTTPEvaluateAndChurn(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	p := smallPlatform(t, 53)

	resp, body := postJSON(t, srv, "/v1/evaluate", EvaluateRequest{
		Platform: p, Source: 0, Heuristics: []string{"lp-grow-tree"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status %d: %s", resp.StatusCode, body)
	}
	var ev Evaluation
	if err := json.Unmarshal(body, &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Results) != 1 || ev.Results[0].Error != "" || ev.Results[0].Ratio <= 0 {
		t.Errorf("evaluation = %+v", ev)
	}

	resp, body = postJSON(t, srv, "/v1/churn", ChurnRequest{Platform: p, Source: 0, Events: 5, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("churn status %d: %s", resp.StatusCode, body)
	}
	var rep ChurnReplay
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Trace.Events) != 5 {
		t.Errorf("trace has %d events, want 5", len(rep.Trace.Events))
	}
}

func TestHTTPConcurrent(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	p := smallPlatform(t, 53)

	resp, body := postJSON(t, srv, "/v1/concurrent", ConcurrentRequest{
		Platform: p,
		Sources:  []ConcurrentSource{{Source: 0, Share: 0.6}, {Source: 1, Share: 0.4}},
		Trees:    32,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("concurrent status %d: %s", resp.StatusCode, body)
	}
	var cp ConcurrentPlan
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Broadcasts) != 2 || cp.TotalThroughput <= 0 {
		t.Fatalf("concurrent plan = %+v", cp)
	}
	for i, b := range cp.Broadcasts {
		if b.Plan == nil || b.Plan.Packing == nil || b.Throughput <= 0 {
			t.Errorf("broadcast %d incomplete: %+v", i, b)
		}
	}

	resp, body = postJSON(t, srv, "/v1/concurrent", ConcurrentRequest{Platform: p})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-sources status %d: %s", resp.StatusCode, body)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}

	if _, err := e.Plan(PlanRequest{Platform: smallPlatform(t, 55), Source: 0}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st := snap.Engine; st.Requests != 1 || st.Solves != 1 || st.CacheEntries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestHTTPErrors(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	// Malformed body.
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Missing platform.
	resp, body := postJSON(t, srv, "/v1/plan", map[string]int{"source": 0})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing platform: status %d, want 400 (%s)", resp.StatusCode, body)
	}
	var e1 errorBody
	if err := json.Unmarshal(body, &e1); err != nil || e1.Error == "" {
		t.Errorf("missing platform: no JSON error body: %s", body)
	}

	// Unknown base fingerprint.
	fp := smallPlatform(t, 57).Fingerprint().String()
	resp, _ = postJSON(t, srv, "/v1/plan", map[string]interface{}{"base": fp, "source": 0})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown base: status %d, want 404", resp.StatusCode)
	}

	// Wrong method.
	resp, err = http.Get(srv.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET plan: status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPMalformedJSONStructured400 pins the malformed-request contract:
// every flavor of malformed JSON — syntax errors, wrong field types, empty
// bodies, unknown fields, and valid JSON followed by trailing garbage — is
// a 400 with a structured {"error": ...} payload, never an empty body.
func TestHTTPMalformedJSONStructured400(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	cases := []struct {
		name string
		body string
	}{
		{"syntax error", `{nope`},
		{"truncated", `{"platform": {"nodes": [`},
		{"empty body", ``},
		{"wrong type", `{"source": "zero"}`},
		{"not an object", `[1, 2, 3]`},
		{"unknown field", `{"sauce": 0}`},
		{"trailing garbage", `{"source": 0} {"more": 1}`},
		{"trailing junk bytes", `{"source": 0} ???`},
		{"invalid node cost", `{"platform": {"nodes": [{"send": {"latency": -5, "perUnit": -1}}, {}], "links": [{"from": 0, "to": 1, "cost": {"perUnit": 1}}]}}`},
		{"negative slice size", `{"platform": {"nodes": [{}, {}], "links": [{"from": 0, "to": 1, "cost": {"perUnit": 1}}], "sliceSize": -2}}`},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/plan", "/v1/evaluate", "/v1/churn"} {
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("%s %s: %v", tc.name, path, err)
			}
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatalf("%s %s: read body: %v", tc.name, path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400 (%s)", tc.name, path, resp.StatusCode, buf.Bytes())
			}
			var eb errorBody
			if err := json.Unmarshal(buf.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Errorf("%s %s: response is not a structured error payload: %q", tc.name, path, buf.String())
			}
		}
	}
}

// TestHTTPDeletedLPKnobsAreRejected: the master LP solver and its pivot
// budget are not request parameters. A body still carrying one of the
// deleted knobs — on any endpoint that used to forward them — is refused by
// the strict decoder with a structured 400 that names the field, not
// silently planned.
func TestHTTPDeletedLPKnobsAreRejected(t *testing.T) {
	srv := httptest.NewServer(NewHandler(New(Config{})))
	defer srv.Close()
	plat, err := json.Marshal(smallPlatform(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	for knob, value := range map[string]string{"revisedLP": "true", "coldLP": "true", "lpMaxIterations": "500"} {
		for path, rest := range map[string]string{
			"/v1/plan":       `"source":0`,
			"/v1/evaluate":   `"source":0`,
			"/v1/concurrent": `"sources":[{"source":0}]`,
		} {
			body := `{"platform":` + string(plat) + `,` + rest + `,"` + knob + `":` + value + `}`
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s %s: %v", path, knob, err)
			}
			var eb errorBody
			err = json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || !strings.Contains(eb.Error, `"`+knob+`"`) {
				t.Errorf("%s with %s: status %d, error %q (decode: %v); want a 400 naming the field", path, knob, resp.StatusCode, eb.Error, err)
			}
		}
	}
}

// TestHTTPPanicRecovered asserts that a panic inside a handler surfaces as
// a structured 500 JSON error, not a severed connection with an empty body.
func TestHTTPPanicRecovered(t *testing.T) {
	h := instrument(nil, NewMetrics(), nil, "/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/boom")
	if err != nil {
		t.Fatalf("panic severed the connection: %v", err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", resp.StatusCode)
	}
	var eb errorBody
	if err := json.Unmarshal(buf.Bytes(), &eb); err != nil || !strings.Contains(eb.Error, "kaboom") {
		t.Errorf("panic did not produce a structured error body: %q", buf.String())
	}
}

// TestHTTPMetricsEndpoint checks that /v1/metrics reports the engine
// counters plus per-endpoint request/error counts and latency summaries.
func TestHTTPMetricsEndpoint(t *testing.T) {
	e := New(Config{})
	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()

	p := smallPlatform(t, 59)
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, srv, "/v1/plan", PlanRequest{Platform: p, Source: 0})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("plan status %d: %s", resp.StatusCode, body)
		}
	}
	// One client error on the same route.
	resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Engine.Requests != 2 || snap.Engine.Hits != 1 || snap.Engine.Misses != 1 {
		t.Errorf("engine stats = %+v, want 2 requests / 1 hit / 1 miss", snap.Engine)
	}
	plan := snap.Endpoints["/v1/plan"]
	if plan.Requests != 3 || plan.Errors != 1 {
		t.Errorf("plan endpoint metrics = %+v, want 3 requests / 1 error", plan)
	}
	if plan.LatencyNs.Count != 3 || plan.LatencyNs.P50 <= 0 || plan.LatencyNs.P99 < plan.LatencyNs.P50 {
		t.Errorf("plan latency summary = %+v", plan.LatencyNs)
	}
	if resp, err = http.Post(srv.URL+"/v1/metrics", "application/json", strings.NewReader("{}")); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST metrics: status %d, want 405", resp.StatusCode)
		}
	}
}

// TestHTTPAbortHandlerPropagates asserts the recovery middleware does not
// swallow http.ErrAbortHandler (net/http's sanctioned response abort): the
// connection must be severed so the client detects the truncation instead
// of reading a fabricated clean error.
func TestHTTPAbortHandlerPropagates(t *testing.T) {
	h := instrument(nil, NewMetrics(), nil, "/abort", func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/abort")
	if err == nil {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		t.Fatalf("abort was converted into a clean reply: status %d body %q", resp.StatusCode, buf.String())
	}
}

// TestDecodePlanPostMatchesStrictDecode holds the single-read request decode
// (decodeRequest) to the strict decoder it bypasses, run on the raw body: on
// every body — platform first, last or absent, oddly cased, repeated or null,
// next to unknown fields, before trailing data, invalid — and for every
// request type that carries a platform, both give the same verdict, the same
// error body and the same request.
func TestDecodePlanPostMatchesStrictDecode(t *testing.T) {
	plat, err := json.Marshal(smallPlatform(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	p := string(plat)
	bodies := []string{
		`{"platform":` + p + `,"source":1,"lpMaxIterations":500}`,
		` { "source" : 1 , "trees" : 2 , "platform" : ` + p + ` } `,
		`{"PLATFORM":` + p + `,"Source":2}`,
		`{"platform":` + p + `,"platform":` + p + `}`,
		`{"platform":` + p + `,"platform":null}`,
		`{"platform":null,"source":1}`,
		`{"base":"00","deltas":[{"kind":"scale-link","link":0,"factor":2}],"source":0}`,
		`{"platform":` + p + `,"sauce":0}`,
		`{"platform":` + p + `,"deltas":[{"kind":"link-down","link":0,"lnik":1}]}`,
		`{"platform":` + p + `} {"more":1}`,
		`{"platform":` + p + `} ???`,
		`{"platform":` + p + `,"source":"zero"}`,
		`{"platform":` + p + `,"source":1`,
		`{"platform":` + strings.Replace(p, `"from":`, `"from":99`, 1) + `}`,
		`{"platform":{"nodes":[{"send":{"latency":-5}},{}]}}`,
		`{"platform":{"nodes":[{},{}],"sliceSize":-2}}`,
		`{"platform":[` + p + `]}`,
		`{"platform":7}`,
		`[` + p + `]`,
		``,
	}
	// Each request type decodes into a fresh value; the reference is
	// requirePost plus decodeStrict on the raw body.
	types := map[string]func(fast bool, w http.ResponseWriter, r *http.Request) (bool, interface{}){
		"plan": func(fast bool, w http.ResponseWriter, r *http.Request) (bool, interface{}) {
			var req PlanRequest
			return decodeEither(fast, w, r, &req, &req.Platform), req
		},
		"evaluate": func(fast bool, w http.ResponseWriter, r *http.Request) (bool, interface{}) {
			var req EvaluateRequest
			return decodeEither(fast, w, r, &req, &req.Platform), req
		},
		"concurrent": func(fast bool, w http.ResponseWriter, r *http.Request) (bool, interface{}) {
			var req ConcurrentRequest
			return decodeEither(fast, w, r, &req, &req.Platform), req
		},
		"churn": func(fast bool, w http.ResponseWriter, r *http.Request) (bool, interface{}) {
			var req ChurnRequest
			return decodeEither(fast, w, r, &req, &req.Platform), req
		},
	}
	for name, decodeAs := range types {
		for _, body := range bodies {
			decode := func(fast bool) (bool, string, string) {
				rec := httptest.NewRecorder()
				r := httptest.NewRequest(http.MethodPost, "/v1/"+name, strings.NewReader(body))
				ok, req := decodeAs(fast, rec, r)
				got, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				return ok, rec.Body.String(), string(got)
			}
			ok, errBody, req := decode(true)
			wantOK, wantErrBody, wantReq := decode(false)
			if ok != wantOK || errBody != wantErrBody || (ok && req != wantReq) {
				t.Errorf("%s body %.60q...:\n  single-read: ok=%v %s %.80s\n  strict:      ok=%v %s %.80s", name, body, ok, errBody, req, wantOK, wantErrBody, wantReq)
			}
		}
	}
}

// decodeEither decodes a request body with decodeRequest (fast) or with the
// reference: requirePost plus decodeStrict on the raw body.
func decodeEither(fast bool, w http.ResponseWriter, r *http.Request, dst interface{}, plat **platform.Platform) bool {
	if fast {
		return decodeRequest(w, r, dst, plat)
	}
	return requirePost(w, r) && decodeStrict(w, http.MaxBytesReader(w, r.Body, maxBodyBytes), dst)
}
