package mapserver

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

func testState() *State {
	s := NewState()
	s.SetAPs([]APMarker{
		{BSSID: "00:00:00:00:00:01", SSID: "a", Pos: geom.Pt(0, 0), Range: 100},
	})
	s.PublishFrame(map[dot11.MAC]core.Estimate{
		{0xDD, 0, 0, 0, 0, 1}: {Pos: geom.Pt(13, 14), K: 3, Method: "m-loc"},
	}, func(dot11.MAC) (geom.Point, bool) { return geom.Pt(10, 10), true })
	return s
}

// served fetches /api/state through the handler and decodes it.
func served(t *testing.T, s *State) (aps []APMarker, devices []DeviceMarker) {
	t.Helper()
	rec := httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/state", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/state status = %d: %s", rec.Code, rec.Body)
	}
	var payload struct {
		APs     []APMarker     `json:"aps"`
		Devices []DeviceMarker `json:"devices"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatal(err)
	}
	return payload.APs, payload.Devices
}

// TestURL: a host-less listen address is shown on localhost, and one with
// a host as given.
func TestURL(t *testing.T) {
	for addr, want := range map[string]string{
		":8649":           "http://localhost:8649",
		"127.0.0.1:18649": "http://127.0.0.1:18649",
		"[::1]:80":        "http://[::1]:80",
	} {
		if got := URL(addr); got != want {
			t.Errorf("URL(%q) = %q, want %q", addr, got, want)
		}
	}
}

func TestAPIState(t *testing.T) {
	srv := httptest.NewServer(Handler(testState()))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/api/state")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	var payload struct {
		APs     []APMarker     `json:"aps"`
		Devices []DeviceMarker `json:"devices"`
	}
	if err := json.NewDecoder(res.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if len(payload.APs) != 1 || len(payload.Devices) != 1 {
		t.Fatalf("payload = %+v", payload)
	}
	d := payload.Devices[0]
	if !d.HasTruth || d.Truth == nil {
		t.Fatal("device should carry truth")
	}
	if d.ErrM < 4.9 || d.ErrM > 5.1 {
		t.Errorf("err = %v, want 5", d.ErrM)
	}
	if d.Method != "m-loc" || d.K != 3 {
		t.Errorf("device = %+v", d)
	}
}

// TestAPIMethodNotAllowed (satellite): every JSON API route refuses
// non-GET with 405, names the allowed method, and GET responses carry
// Cache-Control: no-store so stale pipeline snapshots are never served.
func TestAPIMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	for _, route := range []string{"/api/state", "/api/stats", "/api/trace", "/api/explain"} {
		res, err := http.Post(srv.URL+route, "text/plain", strings.NewReader("x"))
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status = %d, want 405", route, res.StatusCode)
		}
		if allow := res.Header.Get("Allow"); allow != http.MethodGet {
			t.Errorf("POST %s Allow = %q, want GET", route, allow)
		}

		req, _ := http.NewRequest(http.MethodDelete, srv.URL+route, nil)
		res, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s status = %d, want 405", route, res.StatusCode)
		}

		res, err = http.Get(srv.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if cc := res.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("GET %s Cache-Control = %q, want no-store", route, cc)
		}
	}
}

func TestAPIStats(t *testing.T) {
	state := NewState()
	srv := httptest.NewServer(Handler(state))
	defer srv.Close()

	// Without a source the endpoint serves an empty object, not an error.
	res, err := http.Get(srv.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if strings.TrimSpace(string(body)) != "{}" {
		t.Fatalf("empty-source body = %q, want {}", body)
	}

	withStats := httptest.NewServer(NewHandler(state, HandlerOpts{Stats: func() any {
		return map[string]any{"obsShards": 4, "obsRecords": 17}
	}}))
	defer withStats.Close()
	res, err = http.Get(withStats.URL + "/api/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var payload struct {
		ObsShards  int `json:"obsShards"`
		ObsRecords int `json:"obsRecords"`
	}
	if err := json.NewDecoder(res.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.ObsShards != 4 || payload.ObsRecords != 17 {
		t.Fatalf("payload = %+v", payload)
	}

	post, err := http.Post(srv.URL+"/api/stats", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", post.StatusCode)
	}
}

func TestIndexPage(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	buf := make([]byte, 64)
	n, _ := res.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "<!DOCTYPE html>") {
		t.Errorf("index page start: %q", buf[:n])
	}
	// Unknown paths 404.
	res2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", res2.StatusCode)
	}
}

// TestAPsFromKnowledgeAndRemove: the AP layer loads from a knowledge
// base, and a device leaves the map when a frame without it is
// published.
func TestAPsFromKnowledgeAndRemove(t *testing.T) {
	s := NewState()
	mac := dot11.MAC{0, 0, 0, 0, 0, 9}
	s.APsFromKnowledge(core.NewKnowledge([]core.APInfo{
		{BSSID: mac, Pos: geom.Pt(1, 2), MaxRange: 50},
	}))
	aps, _ := served(t, s)
	if len(aps) != 1 || aps[0].Range != 50 || aps[0].BSSID != mac.String() {
		t.Fatalf("aps = %+v", aps)
	}
	dev := dot11.MAC{1, 1, 1, 1, 1, 1}
	s.PublishFrame(map[dot11.MAC]core.Estimate{dev: {Pos: geom.Pt(0, 0)}}, nil)
	if _, devices := served(t, s); len(devices) != 1 {
		t.Fatal("device missing")
	}
	s.PublishFrame(map[dot11.MAC]core.Estimate{}, nil)
	if _, devices := served(t, s); len(devices) != 0 {
		t.Fatal("device not removed")
	}
}

// TestPublishFrameCopiesTruth: the published truth is the frame's own
// copy; changing the caller's point afterwards does not move the dot.
func TestPublishFrameCopiesTruth(t *testing.T) {
	s := NewState()
	truth := geom.Pt(5, 5)
	s.PublishFrame(map[dot11.MAC]core.Estimate{{2}: {Pos: geom.Pt(5, 5)}},
		func(dot11.MAC) (geom.Point, bool) { return truth, true })
	truth.X = 999 // mutate the caller's value
	_, devices := served(t, s)
	if len(devices) != 1 || devices[0].Truth == nil || devices[0].Truth.X != 5 {
		t.Errorf("devices = %+v: PublishFrame must copy the truth point", devices)
	}
}

func TestPublishFrame(t *testing.T) {
	s := testState()
	devA := dot11.MAC{0xDD, 0, 0, 0, 0, 2}
	devB := dot11.MAC{0xDD, 0, 0, 0, 0, 3}
	frame := map[dot11.MAC]core.Estimate{
		devA: {Pos: geom.Pt(1, 2), K: 4, Method: "m-loc"},
		devB: {Pos: geom.Pt(5, 6), K: 2, Method: "ap-rad"},
	}
	s.PublishFrame(frame, func(m dot11.MAC) (geom.Point, bool) {
		if m == devA {
			return geom.Pt(0, 2), true
		}
		return geom.Point{}, false
	})
	_, devices := served(t, s)
	if len(devices) != 2 {
		t.Fatalf("frame replaced layer with %d devices, want 2", len(devices))
	}
	byMAC := make(map[string]DeviceMarker)
	for _, d := range devices {
		byMAC[d.MAC] = d
	}
	a := byMAC[devA.String()]
	if !a.HasTruth || a.ErrM != 1 {
		t.Errorf("devA marker = %+v", a)
	}
	b := byMAC[devB.String()]
	if b.HasTruth || b.Truth != nil {
		t.Errorf("devB should carry no truth: %+v", b)
	}
	// The device published by testState must be gone: frames replace.
	if _, ok := byMAC["dd:00:00:00:00:01"]; ok {
		t.Error("stale device survived PublishFrame")
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("test_probe_total", "", nil).Add(9)
	srv := httptest.NewServer(NewHandler(testState(), HandlerOpts{Registry: reg, Pprof: true}))
	defer srv.Close()

	res, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	if !strings.Contains(string(body), "test_probe_total 9") {
		t.Errorf("/metrics missing series:\n%s", body)
	}

	res, err = http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	err = json.NewDecoder(res.Body).Decode(&vars)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if vars["test_probe_total"].(float64) != 9 {
		t.Errorf("/debug/vars = %v", vars)
	}

	res, err = http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status = %d", res.StatusCode)
	}
}

func TestPprofOptIn(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()
	res, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("pprof not opted in but status = %d", res.StatusCode)
	}
	// The default handler still serves telemetry.
	res, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), "marauder_map_frames_published_total") {
		t.Errorf("default /metrics missing map series:\n%s", body)
	}
}

func TestAPITraceDisabled(t *testing.T) {
	srv := httptest.NewServer(Handler(NewState()))
	defer srv.Close()

	// Without a tracer /api/trace still answers, reporting disabled.
	res, err := http.Get(srv.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Enabled bool           `json:"enabled"`
		Traces  []trace.Record `json:"traces"`
	}
	err = json.NewDecoder(res.Body).Decode(&payload)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if payload.Enabled || len(payload.Traces) != 0 {
		t.Errorf("disabled /api/trace = %+v", payload)
	}

	// /api/explain 404s with a hint to enable tracing.
	res, err = http.Get(srv.URL + "/api/explain?device=aa:bb:cc:dd:ee:ff")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("disabled explain status = %d, want 404", res.StatusCode)
	}
	if !strings.Contains(string(body), "-trace") {
		t.Errorf("disabled explain body %q should point at the -trace flag", body)
	}
}

func TestAPITraceAndExplain(t *testing.T) {
	tracer, err := trace.New(trace.Config{Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	state := NewState()
	state.SetTracer(tracer)
	srv := httptest.NewServer(Handler(state))
	defer srv.Close()

	// /api/explain without a device parameter is a 400.
	res, err := http.Get(srv.URL + "/api/explain")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("missing-device status = %d, want 400", res.StatusCode)
	}

	// Enabled but nothing traced for this device yet: 404 with the
	// sampling rate in the message.
	res, err = http.Get(srv.URL + "/api/explain?device=aa:bb:cc:dd:ee:ff")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("untraced device status = %d, want 404", res.StatusCode)
	}
	if !strings.Contains(string(body), "sampling is 1 in 1") {
		t.Errorf("untraced device body %q should state the sampling rate", body)
	}

	// Record a fix trace with provenance and read it back both ways.
	x := tracer.Start(trace.KindFix, "aa:bb:cc:dd:ee:ff")
	x.Finish(time.Now(), 3*time.Microsecond, &trace.Provenance{
		Algorithm: "m-loc", Gamma: []string{"00:00:00:00:00:01"}, K: 1,
		Located: true, IntersectedAreaM2: 42.0, Theorem2AreaM2: 40.1, CacheHit: true,
		StagesMs: map[string]float64{"localize": 0.003}, TotalMs: 0.003,
	}, trace.Span{Name: "localize", DurUS: 3})

	res, err = http.Get(srv.URL + "/api/explain?device=aa:bb:cc:dd:ee:ff")
	if err != nil {
		t.Fatal(err)
	}
	var p trace.Provenance
	err = json.NewDecoder(res.Body).Decode(&p)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != "m-loc" || p.K != 1 || !p.CacheHit || p.IntersectedAreaM2 != 42.0 {
		t.Errorf("explain payload = %+v", p)
	}
	if p.TraceID == "" || len(p.StagesMs) == 0 {
		t.Errorf("explain payload missing trace ID or stages: %+v", p)
	}

	res, err = http.Get(srv.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Enabled bool           `json:"enabled"`
		Stats   trace.Stats    `json:"stats"`
		Traces  []trace.Record `json:"traces"`
	}
	err = json.NewDecoder(res.Body).Decode(&dump)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !dump.Enabled || dump.Stats.Finished != 1 || len(dump.Traces) != 1 {
		t.Errorf("/api/trace = enabled=%v stats=%+v traces=%d", dump.Enabled, dump.Stats, len(dump.Traces))
	}
	if dump.Traces[0].Provenance == nil || dump.Traces[0].Kind != trace.KindFix {
		t.Errorf("trace record = %+v", dump.Traces[0])
	}

	// n validation: garbage and non-positive values are 400s.
	for _, q := range []string{"?n=abc", "?n=0", "?n=-3"} {
		res, err := http.Get(srv.URL + "/api/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("/api/trace%s status = %d, want 400", q, res.StatusCode)
		}
	}
	res, err = http.Get(srv.URL + "/api/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("/api/trace?n=1 status = %d", res.StatusCode)
	}
}

func TestPublishFrameRecordsErrorHistogram(t *testing.T) {
	h := telemetry.Default().Histogram("marauder_localization_error_meters", "",
		telemetry.DistanceBuckets(), telemetry.Labels{"algo": "m-loc"})
	before := h.Count()
	s := NewState()
	dev := dot11.MAC{0xDD, 0, 0, 0, 0, 8}
	s.PublishFrame(map[dot11.MAC]core.Estimate{
		dev: {Pos: geom.Pt(3, 4), Method: "m-loc"},
	}, func(dot11.MAC) (geom.Point, bool) { return geom.Pt(0, 0), true })
	if h.Count() != before+1 {
		t.Fatalf("error histogram count %d -> %d, want +1", before, h.Count())
	}
	if sum := h.Sum(); sum <= 0 {
		t.Fatalf("error histogram sum = %v", sum)
	}
}

// TestPublishFrameErrorHistogramPerMethod mixes methods in one frame: the
// per-method handle memo must still file every error under its own
// algorithm label.
func TestPublishFrameErrorHistogramPerMethod(t *testing.T) {
	hist := func(algo string) *telemetry.Histogram {
		return telemetry.Default().Histogram("marauder_localization_error_meters", "",
			telemetry.DistanceBuckets(), telemetry.Labels{"algo": algo})
	}
	mloc, cent := hist("m-loc"), hist("centroid")
	mloc0, cent0 := mloc.Count(), cent.Count()
	frame := make(map[dot11.MAC]core.Estimate)
	for i := 0; i < 40; i++ {
		method := "m-loc"
		if i%3 == 0 {
			method = "centroid"
		}
		frame[dot11.MAC{0xDE, 0, 0, 0, 0, byte(i)}] = core.Estimate{Pos: geom.Pt(1, 1), Method: method}
	}
	NewState().PublishFrame(frame, func(dot11.MAC) (geom.Point, bool) { return geom.Pt(0, 0), true })
	if got := mloc.Count() - mloc0; got != 26 {
		t.Errorf("m-loc errors recorded %d, want 26", got)
	}
	if got := cent.Count() - cent0; got != 14 {
		t.Errorf("centroid errors recorded %d, want 14", got)
	}
}
