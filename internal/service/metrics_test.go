package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// promFamily maps every Stats JSON key to its Prometheus family.
var promFamily = map[string]string{
	"requests":          "bcast_requests_total",
	"hits":              "bcast_cache_hits_total",
	"misses":            "bcast_cache_misses_total",
	"twinMisses":        "bcast_twin_misses_total",
	"singleflight":      "bcast_singleflight_total",
	"evictions":         "bcast_evictions_total",
	"evictionsDeferred": "bcast_evictions_deferred_total",
	"queued":            "bcast_queued_total",
	"shed":              "bcast_shed_total",
	"canceled":          "bcast_canceled_total",
	"degraded":          "bcast_degraded_total",
	"refines":           "bcast_refines_total",
	"refineFailures":    "bcast_refine_failures_total",
	"solves":            "bcast_solves_total",
	"deltaPlans":        "bcast_delta_plans_total",
	"warmResolves":      "bcast_warm_resolves_total",
	"sessionRebuilds":   "bcast_session_rebuilds_total",
	"lpPivots":          "bcast_lp_pivots_total",
	"lpWarmPivots":      "bcast_lp_warm_pivots_total",
	"lpColdPivots":      "bcast_lp_cold_pivots_total",
	"sepMaxFlows":       "bcast_separation_maxflows_total",
	"sepCertified":      "bcast_separation_certified_total",
	"churnRuns":         "bcast_churn_runs_total",
	"cacheEntries":      "bcast_cache_entries",
	"cacheCapacity":     "bcast_cache_capacity",
	"workers":           "bcast_workers",
	"queueDepth":        "bcast_queue_depth",
}

// TestMetricsRenderersAgree drives a miss, a hit, a twin, a shed, a degraded
// request with its refinement and a churn run, then scrapes both renderers:
// every Stats counter and gauge in the engine member of /v1/metrics must be
// present (zero or not) and equal its bcast_* family in /metrics.
func TestMetricsRenderersAgree(t *testing.T) {
	block := make(chan struct{})
	// Room for every admission of the test, so OnAdmit never blocks after
	// the storm has been read.
	admitCh := make(chan AdmitKind, 64)
	e := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Hooks: &Hooks{
			BeforeSolve: func() { <-block },
			OnAdmit:     func(ev AdmitEvent) { admitCh <- ev.Kind },
		},
	})
	// Three cold misses on one lane and one queue slot: one solves, one
	// queues, one is shed.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Plan(PlanRequest{Platform: smallPlatform(t, int64(50+i)), Source: 0})
		}()
		if i == 0 {
			<-admitCh
		}
	}
	for i := 0; i < 2; i++ {
		<-admitCh
	}
	close(block)
	wg.Wait()
	var planned int64 = -1
	for i := int64(0); i < 3 && planned < 0; i++ {
		if res, err := e.Plan(PlanRequest{Platform: smallPlatform(t, 50+i), Source: 0}); err == nil && res.Cached {
			planned = 50 + i
		}
	}
	if planned < 0 {
		t.Fatal("no storm platform is cached")
	}
	if res, err := e.Plan(PlanRequest{Platform: permutedTwin(smallPlatform(t, planned)), Source: 0}); err != nil || res.Cached {
		t.Fatalf("twin: cached=%v err=%v", res != nil && res.Cached, err)
	}
	if res, err := e.Plan(PlanRequest{Platform: smallPlatform(t, 60), Source: 0, Degraded: true}); err != nil || !res.Degraded {
		t.Fatalf("degraded: err=%v", err)
	}
	e.Drain()
	if _, err := e.Churn(ChurnRequest{Platform: smallPlatform(t, 61), Source: 0, Events: 3, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHandler(e))
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(raw)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/v1/metrics")), &members); err != nil {
		t.Fatal(err)
	}
	var engine map[string]int64
	if err := json.Unmarshal(members["engine"], &engine); err != nil {
		t.Fatal(err)
	}
	prom := map[string]int64{}
	for _, line := range strings.Split(get("/metrics"), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		prom[name] = int64(v)
	}

	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		key := strings.Split(st.Field(i).Tag.Get("json"), ",")[0]
		fam, ok := promFamily[key]
		if !ok {
			t.Errorf("Stats.%s (%q) has no Prometheus family in this test's table", st.Field(i).Name, key)
			continue
		}
		got, inJSON := engine[key]
		if !inJSON {
			t.Errorf("/v1/metrics engine member has no %q", key)
		}
		if want, inProm := prom[fam]; !inProm || got != want {
			t.Errorf("%s: /v1/metrics %d, /metrics %d (present %v)", key, got, want, inProm)
		}
	}
	// The drive reached every path it claims to.
	for key, want := range map[string]int64{"shed": 1, "twinMisses": 1, "degraded": 1, "refines": 1, "churnRuns": 1, "hits": 1} {
		if engine[key] != want {
			t.Errorf("engine %s = %d, want %d", key, engine[key], want)
		}
	}
	if engine["requests"] != engine["hits"]+engine["misses"] {
		t.Errorf("requests %d != hits %d + misses %d", engine["requests"], engine["hits"], engine["misses"])
	}
}
