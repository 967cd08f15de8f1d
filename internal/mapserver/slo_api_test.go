package mapserver

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/slo"
)

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func TestAPISLODisabledByDefault(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	var got map[string]any
	if code := getJSON(t, srv.URL+"/api/slo", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got["enabled"] != false {
		t.Errorf("/api/slo without a source: %v", got)
	}
	if code := getJSON(t, srv.URL+"/api/profile", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got["enabled"] != false {
		t.Errorf("/api/profile without a source: %v", got)
	}
}

func TestAPIProfileServesSource(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewState(), HandlerOpts{Profile: func() any {
		return map[string]any{"enabled": true, "topFunctions": []string{"hot.func"}}
	}}))
	defer srv.Close()
	var got map[string]any
	if code := getJSON(t, srv.URL+"/api/profile", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got["enabled"] != true {
		t.Errorf("/api/profile: %v", got)
	}
}

// TestAPISLOAndHealthTransitions drives a real slo.Tracker through
// met → burning → exhausted → recovered, asserting both the /api/slo
// payload and the SLO reasons folded into /api/health at every step —
// the HTTP-level sibling of the state-machine tests in internal/telemetry/slo.
func TestAPISLOAndHealthTransitions(t *testing.T) {
	reg := telemetry.NewRegistry()
	total := reg.Counter("t_requests_total", "", nil)
	bad := reg.Counter("t_errors_total", "", nil)
	now := time.Unix(1_700_000_000, 0)
	tracker, err := slo.New(slo.Config{
		Objectives: []slo.Objective{{
			Name: "avail", Kind: slo.KindAvailability, Target: 0.9,
			TotalSeries: "t_requests_total", BadSeries: "t_errors_total",
		}},
		Windows:  []time.Duration{time.Minute, 4 * time.Minute},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHandler(NewState(), HandlerOpts{
		SLO: func() any { return tracker.Report() },
		// The health provider folds tracker reasons the way cmd/marauder
		// does.
		Health: func() Health {
			h := Health{Status: StatusHealthy}
			if rs := tracker.HealthReasons(); len(rs) > 0 {
				h.Status = StatusDegraded
				h.Reasons = rs
			}
			return h
		},
	}))
	defer srv.Close()

	sloState := func() string {
		var got struct {
			Enabled bool       `json:"enabled"`
			SLO     slo.Report `json:"slo"`
		}
		if code := getJSON(t, srv.URL+"/api/slo", &got); code != http.StatusOK {
			t.Fatalf("/api/slo status %d", code)
		}
		if !got.Enabled || len(got.SLO.Objectives) != 1 {
			t.Fatalf("/api/slo payload: %+v", got)
		}
		return got.SLO.Objectives[0].State
	}
	health := func() (int, Health) {
		var h Health
		code := getJSON(t, srv.URL+"/api/health", &h)
		return code, h
	}

	// Met: two minutes of clean traffic.
	for i := 0; i < 12; i++ {
		now = now.Add(10 * time.Second)
		total.Add(100)
		tracker.Observe(now, reg.Snapshot())
	}
	if got := sloState(); got != slo.StateMet {
		t.Fatalf("state = %q, want met", got)
	}
	if code, h := health(); code != http.StatusOK || !h.Healthy() {
		t.Fatalf("healthy phase: code %d, health %+v", code, h)
	}

	// Burning: one bad burst trips the short window.
	now = now.Add(10 * time.Second)
	total.Add(100)
	bad.Add(80)
	tracker.Observe(now, reg.Snapshot())
	if got := sloState(); got != slo.StateBurning {
		t.Fatalf("state = %q, want burning", got)
	}
	code, h := health()
	if code != http.StatusServiceUnavailable || h.Healthy() || len(h.Reasons) != 1 {
		t.Fatalf("burning phase: code %d, health %+v", code, h)
	}

	// Exhausted: sustained errors blow the long window's budget.
	for i := 0; i < 6; i++ {
		now = now.Add(10 * time.Second)
		total.Add(100)
		bad.Add(50)
		tracker.Observe(now, reg.Snapshot())
	}
	if got := sloState(); got != slo.StateExhausted {
		t.Fatalf("state = %q, want exhausted", got)
	}
	if code, h := health(); code != http.StatusServiceUnavailable || h.Healthy() {
		t.Fatalf("exhausted phase: code %d, health %+v", code, h)
	}

	// Recovered: clean traffic until the bad interval ages out of the 4m
	// window.
	for i := 0; i < 30; i++ {
		now = now.Add(10 * time.Second)
		total.Add(100)
		tracker.Observe(now, reg.Snapshot())
	}
	if got := sloState(); got != slo.StateMet {
		t.Fatalf("state = %q, want met after recovery", got)
	}
	if code, h := health(); code != http.StatusOK || !h.Healthy() {
		t.Fatalf("recovered phase: code %d, health %+v", code, h)
	}
}
