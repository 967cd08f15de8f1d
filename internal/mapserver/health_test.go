package mapserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func getHealth(t *testing.T, url string) (int, Health) {
	t.Helper()
	resp, err := http.Get(url + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

func TestAPIHealthDefaultsHealthy(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	code, h := getHealth(t, srv.URL)
	if code != http.StatusOK {
		t.Errorf("status = %d, want 200", code)
	}
	if h.Status != StatusHealthy || len(h.Reasons) != 0 {
		t.Errorf("health = %+v, want healthy with no reasons", h)
	}
}

func TestAPIHealthDegraded(t *testing.T) {
	cur := Health{Status: StatusDegraded, Reasons: []string{"knowledge refresh failing"},
		Detail: map[string]any{"consecutiveRefreshFailures": 3}}
	srv := httptest.NewServer(NewHandler(NewState(), HandlerOpts{Health: func() Health { return cur }}))
	defer srv.Close()

	code, h := getHealth(t, srv.URL)
	if code != http.StatusServiceUnavailable {
		t.Errorf("degraded status = %d, want 503", code)
	}
	if h.Status != StatusDegraded || len(h.Reasons) != 1 || h.Reasons[0] != "knowledge refresh failing" {
		t.Errorf("health = %+v", h)
	}
	detail, ok := h.Detail.(map[string]any)
	if !ok || detail["consecutiveRefreshFailures"] != float64(3) {
		t.Errorf("detail = %#v", h.Detail)
	}

	// The source heals: the endpoint flips back to 200 without a restart.
	cur = Health{Status: StatusHealthy}
	code, h = getHealth(t, srv.URL)
	if code != http.StatusOK || h.Status != StatusHealthy {
		t.Errorf("after heal: status = %d, health = %+v", code, h)
	}
}

func TestAPIHealthMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/api/health", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}
