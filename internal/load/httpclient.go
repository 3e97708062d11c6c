package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// HTTPPlanner replays against a running bcast-serve over its JSON API. The
// canonical counters stay deterministic when the server is fresh and
// receives no other traffic; flood-burst singleflight splits are
// best-effort only (the in-process Gate cannot reach across HTTP), so
// byte-identical reports are guaranteed only for the in-process mode.
type HTTPPlanner struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// Client is the HTTP client (default: 5-minute timeout, matching the
	// server's worst-case solve window).
	Client *http.Client
}

// NewHTTPPlanner returns a planner for the server at baseURL.
func NewHTTPPlanner(baseURL string) *HTTPPlanner {
	return &HTTPPlanner{
		BaseURL: strings.TrimRight(baseURL, "/"),
		Client:  &http.Client{Timeout: 5 * time.Minute},
	}
}

// envelope mirrors the /v1/plan response body.
type envelope struct {
	Cached    bool            `json:"cached"`
	Collapsed bool            `json:"collapsed"`
	Warm      bool            `json:"warm"`
	Degraded  bool            `json:"degraded"`
	Plan      json.RawMessage `json:"plan"`
}

type httpError struct {
	Error string `json:"error"`
}

// Plan implements Planner.
func (hp *HTTPPlanner) Plan(req service.PlanRequest) (*service.PlanResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("load: marshal plan request: %w", err)
	}
	resp, err := hp.Client.Post(hp.BaseURL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("load: POST /v1/plan: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var he httpError
		msg := ""
		if json.NewDecoder(resp.Body).Decode(&he) == nil {
			msg = he.Error
		}
		// Map the overload-contract statuses back onto the engine's typed
		// errors so replays treat HTTP and in-process targets uniformly
		// (observe counts sheds by errors.Is(err, service.ErrOverloaded)).
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			retry := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if n, err := strconv.Atoi(s); err == nil && n > 0 {
					retry = time.Duration(n) * time.Second
				}
			}
			return nil, &service.OverloadedError{RetryAfter: retry}
		case http.StatusGatewayTimeout:
			if msg == "" {
				msg = "gateway timeout"
			}
			return nil, fmt.Errorf("load: /v1/plan: %s: %w", msg, service.ErrCanceled)
		}
		if msg != "" {
			return nil, fmt.Errorf("load: /v1/plan: %s (status %d)", msg, resp.StatusCode)
		}
		return nil, fmt.Errorf("load: /v1/plan: status %d", resp.StatusCode)
	}
	var env envelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return nil, fmt.Errorf("load: decode /v1/plan response: %w", err)
	}
	plan := new(service.Plan)
	if err := json.Unmarshal(env.Plan, plan); err != nil {
		return nil, fmt.Errorf("load: decode plan: %w", err)
	}
	return &service.PlanResult{
		Plan:         plan,
		JSON:         append([]byte(nil), env.Plan...),
		Cached:       env.Cached,
		Collapsed:    env.Collapsed,
		WarmResolved: env.Warm,
		Degraded:     env.Degraded,
	}, nil
}

// Stats implements Planner: the engine member of the server's GET
// /v1/metrics snapshot.
func (hp *HTTPPlanner) Stats() (service.Stats, error) {
	resp, err := hp.Client.Get(hp.BaseURL + "/v1/metrics")
	if err != nil {
		return service.Stats{}, fmt.Errorf("load: GET /v1/metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.Stats{}, fmt.Errorf("load: /v1/metrics: status %d", resp.StatusCode)
	}
	var snap service.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return service.Stats{}, fmt.Errorf("load: decode /v1/metrics: %w", err)
	}
	return snap.Engine, nil
}

// Mode implements Planner.
func (hp *HTTPPlanner) Mode() string { return "http" }
