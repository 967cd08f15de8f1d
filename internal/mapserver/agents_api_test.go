package mapserver

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestAPIAgentsDisabledByDefault(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	var got map[string]any
	if code := getJSON(t, srv.URL+"/api/agents", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got["enabled"] != false {
		t.Errorf("/api/agents without a source: %v", got)
	}
}

func TestAPIAgentsServesSource(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewState(), HandlerOpts{Agents: func() any {
		return map[string]any{
			"enabled": true,
			"agents": []map[string]any{
				{"id": "lab-1", "connected": true, "cursor": 41, "resumes": 1},
			},
		}
	}}))
	defer srv.Close()
	var got struct {
		Enabled bool `json:"enabled"`
		Agents  []struct {
			ID     string `json:"id"`
			Cursor int    `json:"cursor"`
		} `json:"agents"`
	}
	if code := getJSON(t, srv.URL+"/api/agents", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !got.Enabled || len(got.Agents) != 1 || got.Agents[0].ID != "lab-1" || got.Agents[0].Cursor != 41 {
		t.Errorf("/api/agents: %+v", got)
	}
}
