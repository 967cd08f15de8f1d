// Package mapserver serves the digital Marauder's map display: a small
// net/http server with a JSON API (AP locations, tracked devices, true vs
// estimated positions) and an HTML canvas page that renders the map — the
// reproduction's stand-in for the paper's Google-Maps overlay.
package mapserver

import (
	"embed"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Process-wide display metrics. The localization-error histogram is the
// map's built-in accuracy read-out: whenever a published estimate comes
// with ground truth (simulation), the error distance is recorded under the
// estimate's algorithm label.
var (
	mFramesPublished = telemetry.Default().Counter(
		"marauder_map_frames_published_total",
		"Whole-map device frames published to the display.", nil)
	mDevicesOnMap = telemetry.Default().Gauge(
		"marauder_map_devices",
		"Devices currently shown on the map.", nil)
	// mStagePublish joins the engine's marauder_stage_seconds family: the
	// publish stage runs once per map frame, so it is timed on every call
	// rather than sampled.
	mStagePublish = telemetry.Default().Histogram(
		"marauder_stage_seconds",
		"Wall time per pipeline stage (fix-path stages timed on 1 fix in 16 plus every traced fix; store_scan is a map frame's candidate assembly).",
		telemetry.LatencyBuckets(), telemetry.Labels{"stage": "publish"})
)

// mRequests / mRequestSeconds instrument every HTTP route the handler
// serves, labeled by route pattern.
func mRequests(route string) *telemetry.Counter {
	return telemetry.Default().Counter(
		"marauder_http_requests_total",
		"HTTP requests served, by route.", telemetry.Labels{"route": route})
}

func mRequestSeconds(route string) *telemetry.Histogram {
	return telemetry.Default().Histogram(
		"marauder_http_request_seconds",
		"HTTP request latency, by route.", telemetry.LatencyBuckets(),
		telemetry.Labels{"route": route})
}

// errorHists holds the localization-error histogram of every algorithm
// (Estimate.Method) label resolved so far.
var errorHists sync.Map // string -> *telemetry.Histogram

// errorHist returns the localization-error histogram for one algorithm
// label. Only an algorithm's first frame resolves it through the registry
// lock; later frames read it from errorHists.
func errorHist(algo string) *telemetry.Histogram {
	if h, ok := errorHists.Load(algo); ok {
		return h.(*telemetry.Histogram)
	}
	h := telemetry.Default().Histogram(
		"marauder_localization_error_meters",
		"Localization error versus ground truth, by algorithm.",
		telemetry.DistanceBuckets(), telemetry.Labels{"algo": algo})
	errorHists.Store(algo, h)
	return h
}

// APMarker is one AP dot on the map.
type APMarker struct {
	BSSID string     `json:"bssid"`
	SSID  string     `json:"ssid"`
	Pos   geom.Point `json:"pos"`
	Range float64    `json:"range"`
}

// DeviceMarker is one tracked device on the map: where the attack thinks
// it is, and (when the caller knows it, e.g. in simulation) where it truly
// is.
type DeviceMarker struct {
	MAC      string      `json:"mac"`
	Est      geom.Point  `json:"est"`
	Truth    *geom.Point `json:"truth,omitempty"`
	K        int         `json:"k"`
	Method   string      `json:"method"`
	ErrM     float64     `json:"errM"`
	HasTruth bool        `json:"hasTruth"`
}

// Health is the pipeline's degraded-vs-healthy self-report, served at
// /api/health. Status is "healthy" or "degraded"; Reasons names each
// active degradation; Detail carries the provider's full health payload
// (engine counters, card states, checkpoint state).
type Health struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
	Detail  any      `json:"detail,omitempty"`
}

// Healthy reports whether the status is "healthy".
func (h Health) Healthy() bool { return h.Status == StatusHealthy }

// Health status values.
const (
	StatusHealthy  = "healthy"
	StatusDegraded = "degraded"
)

// State is the server's current map content. Safe for concurrent use.
//
// The device layer is one immutable slice, sorted by MAC, swapped in
// whole by PublishFrame; the AP layer is held as its JSON encoding, made
// once by SetAPs. A GET /api/state takes both under the read lock and
// encodes without holding it (see encode.go).
type State struct {
	mu      sync.RWMutex
	aps     apLayer
	devices []device // never mutated once published
	tracer  *trace.Tracer
}

// NewState creates an empty map state.
func NewState() *State {
	return &State{aps: encodeAPs(nil)}
}

// SetAPs replaces the AP layer.
func (s *State) SetAPs(aps []APMarker) {
	layer := encodeAPs(aps)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.aps = layer
}

// APsFromKnowledge loads the AP layer from a localization knowledge base.
func (s *State) APsFromKnowledge(k core.Knowledge) {
	all := k.All() // BSSID order is the markers' order: String is fixed-width hex
	aps := make([]APMarker, 0, len(all))
	for _, in := range all {
		aps = append(aps, APMarker{
			BSSID: in.BSSID.String(),
			Pos:   in.Pos,
			Range: in.MaxRange,
		})
	}
	s.SetAPs(aps)
}

// PublishFrame replaces the whole device layer with one engine snapshot —
// every device, every window, one dot on the map. truth, when non-nil,
// supplies the true position for devices whose ground truth the caller
// knows (simulation); it returns false for the rest.
func (s *State) PublishFrame(frame map[dot11.MAC]core.Estimate, truth func(dot11.MAC) (geom.Point, bool)) {
	start := time.Now()
	devices := make([]device, 0, len(frame))
	// A frame's estimates almost always share one method, so the error
	// histogram is looked up again only when the method changes.
	var (
		errAlgo string
		errH    *telemetry.Histogram
	)
	for mac, est := range frame {
		d := device{mac: mac.Key(), est: est.Pos, k: est.K, method: est.Method}
		if truth != nil {
			if pos, ok := truth(mac); ok {
				d.truth, d.hasTruth = pos, true
				d.errM = est.Pos.Dist(pos)
				if errH == nil || est.Method != errAlgo {
					errAlgo, errH = est.Method, errorHist(est.Method)
				}
				errH.Observe(d.errM)
			}
		}
		devices = append(devices, d)
	}
	sort.Sort(byMAC(devices))
	s.mu.Lock()
	s.devices = devices
	s.mu.Unlock()
	mFramesPublished.Inc()
	mDevicesOnMap.Set(float64(len(devices)))
	dur := time.Since(start)
	mStagePublish.Observe(dur.Seconds())
	if tr := s.traceSource().Start(trace.KindPublish, ""); tr != nil {
		tr.Finish(start, dur, nil, trace.Span{
			Name: "publish", DurUS: dur.Microseconds(), Attrs: map[string]any{"devices": len(frame)}})
	}
}

// SetTracer installs the pipeline tracer behind /api/trace (recent-trace
// ring dump) and /api/explain (latest per-device estimate provenance), and
// lets PublishFrame record its publish span. nil (the default) leaves the
// endpoints serving "tracing disabled".
func (s *State) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

func (s *State) traceSource() *trace.Tracer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracer
}

//go:embed static
var staticFS embed.FS

// HandlerOpts configures the map server's HTTP surface. The providers
// behind the status endpoints are fixed when the handler is built; each
// is called once per request, on the request's goroutine, and a nil
// provider serves that endpoint's disabled (or healthy) default.
type HandlerOpts struct {
	// Registry is the metrics registry exposed at /metrics and
	// /debug/vars; nil uses the process-wide default registry.
	Registry *telemetry.Registry
	// Pprof mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling endpoints can stall the serving goroutine and leak
	// internals, so the display port only gets them when asked).
	Pprof bool
	// Stats is the provider behind /api/stats — typically a closure over
	// engine.Stats plus the observation store's shard shape, so the map
	// UI and scripts can read pipeline health without scraping
	// Prometheus text. The value must be JSON-serializable; nil serves {}.
	Stats func() any
	// Health is the provider behind /api/health — typically a closure
	// composing engine.Health with the sniffer card states and the
	// checkpointer. A degraded report is served with status 503. nil
	// reports healthy: a pipeline with no health provider has nothing to
	// degrade.
	Health func() Health
	// SLO is the provider behind /api/slo — typically a closure over
	// slo.Tracker.Report, served as {"enabled":true,"slo":...}. The value
	// must be JSON-serializable; nil reports SLO tracking disabled.
	SLO func() any
	// Profile is the provider behind /api/profile — typically a closure
	// over prof.Profiler.Status, whose LastCPUPath `go tool pprof` reads.
	// nil reports profiling disabled.
	Profile func() any
	// Agents is the provider behind /api/agents — typically a closure over
	// capwire.Server.Report, giving per-agent liveness, lag, cursor, and
	// resume/dedup accounting. The value must be JSON-serializable; nil
	// reports the distributed capture plane disabled.
	Agents func() any
}

// instrument wraps a route handler with the per-route request counter and
// latency histogram.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	reqs := mRequests(route)
	lat := mRequestSeconds(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		reqs.Inc()
		lat.ObserveSince(start)
	}
}

// apiGET instruments a JSON API route and enforces the API contract: only
// GET (anything else gets 405 with an Allow header), and responses must
// not be cached — every /api/* payload is a live pipeline snapshot, and a
// cached estimate or provenance record would silently misreport the map.
func apiGET(route string, h http.HandlerFunc) http.HandlerFunc {
	return instrument(route, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Cache-Control", "no-store")
		h(w, r)
	})
}

// writeJSON encodes one API response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, fmt.Sprintf("encode: %v", err), http.StatusInternalServerError)
	}
}

// serveProvider serves a status provider's value as JSON, or
// {"enabled":false} when there is no provider.
func serveProvider(src func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if src == nil {
			writeJSON(w, map[string]any{"enabled": false})
			return
		}
		writeJSON(w, src())
	}
}

// URL is the map's address for a listen address: a host-less ":port"
// is served on every interface and shown as localhost, and an address
// with a host is shown as given.
func URL(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://localhost" + addr
	}
	return "http://" + addr
}

// Handler returns the HTTP handler for the map UI and API, with the
// default telemetry endpoints and no pprof.
func Handler(state *State) http.Handler {
	return NewHandler(state, HandlerOpts{})
}

// NewHandler returns the HTTP handler for the map UI, the JSON API and
// the observability endpoints: /metrics (Prometheus text format) and
// /debug/vars (expvar-style JSON) always, /debug/pprof/ when opted in.
// /api/stats, /api/health, /api/slo, /api/profile and /api/agents serve
// opts' providers. When a tracer is installed via State.SetTracer,
// /api/trace dumps the recent-trace ring and /api/explain?device=MAC
// serves the device's latest estimate provenance.
func NewHandler(state *State, opts HandlerOpts) http.Handler {
	reg := opts.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/state", apiGET("/api/state", func(w http.ResponseWriter, r *http.Request) {
		state.serveState(w)
	}))
	mux.HandleFunc("/api/stats", apiGET("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		var v any = map[string]any{}
		if opts.Stats != nil {
			v = opts.Stats()
		}
		writeJSON(w, v)
	}))
	mux.HandleFunc("/api/health", apiGET("/api/health", func(w http.ResponseWriter, r *http.Request) {
		h := Health{Status: StatusHealthy}
		if opts.Health != nil {
			h = opts.Health()
		}
		if !h.Healthy() {
			// Headers are frozen at WriteHeader: set the type first.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeJSON(w, h)
	}))
	mux.HandleFunc("/api/slo", apiGET("/api/slo", func(w http.ResponseWriter, r *http.Request) {
		if opts.SLO == nil {
			writeJSON(w, map[string]any{"enabled": false})
			return
		}
		writeJSON(w, map[string]any{"enabled": true, "slo": opts.SLO()})
	}))
	mux.HandleFunc("/api/profile", apiGET("/api/profile", serveProvider(opts.Profile)))
	mux.HandleFunc("/api/agents", apiGET("/api/agents", serveProvider(opts.Agents)))
	mux.HandleFunc("/api/trace", apiGET("/api/trace", func(w http.ResponseWriter, r *http.Request) {
		t := state.traceSource()
		n := 50
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 1 {
				http.Error(w, fmt.Sprintf("bad n %q: want a positive integer", q), http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, map[string]any{
			"enabled": t.Enabled(),
			"stats":   t.Stats(),
			"traces":  t.Recent(n),
		})
	}))
	mux.HandleFunc("/api/explain", apiGET("/api/explain", func(w http.ResponseWriter, r *http.Request) {
		dev := r.URL.Query().Get("device")
		if dev == "" {
			http.Error(w, "missing device parameter (MAC, e.g. /api/explain?device=02:dd:00:00:00:01)", http.StatusBadRequest)
			return
		}
		t := state.traceSource()
		if !t.Enabled() {
			http.Error(w, "tracing disabled: restart with -trace to record estimate provenance", http.StatusNotFound)
			return
		}
		p, ok := t.Explain(dev)
		if !ok {
			http.Error(w, fmt.Sprintf("no traced estimate for device %s (yet — sampling is 1 in %d)", dev, t.SampleEvery()), http.StatusNotFound)
			return
		}
		writeJSON(w, p)
	}))
	mux.Handle("/metrics", instrument("/metrics", reg.MetricsHandler().ServeHTTP))
	mux.Handle("/debug/vars", instrument("/debug/vars", reg.VarsHandler().ServeHTTP))
	if opts.Pprof {
		telemetry.RegisterPprof(mux)
	}
	mux.HandleFunc("/", instrument("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		page, err := staticFS.ReadFile("static/index.html")
		if err != nil {
			http.Error(w, "missing page", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		if _, err := w.Write(page); err != nil {
			return
		}
	}))
	return mux
}
