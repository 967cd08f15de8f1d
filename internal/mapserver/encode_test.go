package mapserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/geom"
)

// referenceState is /api/state as encoding/json writes it: the markers
// PublishFrame and SetAPs define, MAC-sorted, through writeJSON.
func referenceState(aps []APMarker, frame map[dot11.MAC]core.Estimate, truth func(dot11.MAC) (geom.Point, bool)) *httptest.ResponseRecorder {
	var apLayer []APMarker // an empty layer is stored, and served, as nil
	if len(aps) > 0 {
		apLayer = append(apLayer, aps...)
	}
	devices := make([]DeviceMarker, 0, len(frame))
	for mac, est := range frame {
		m := DeviceMarker{MAC: mac.String(), Est: est.Pos, K: est.K, Method: est.Method}
		if truth != nil {
			if pos, ok := truth(mac); ok {
				m.Truth, m.HasTruth, m.ErrM = &pos, true, est.Pos.Dist(pos)
			}
		}
		devices = append(devices, m)
	}
	sort.Slice(devices, func(i, j int) bool { return devices[i].MAC < devices[j].MAC })
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]any{"aps": apLayer, "devices": devices})
	return rec
}

// checkStateJSON publishes aps (when setAPs) and frame, then requires the
// served /api/state to match encoding/json's response byte for byte.
func checkStateJSON(t *testing.T, setAPs bool, aps []APMarker, frame map[dot11.MAC]core.Estimate, truth func(dot11.MAC) (geom.Point, bool)) {
	t.Helper()
	s := NewState()
	if setAPs {
		s.SetAPs(aps)
	}
	s.PublishFrame(frame, truth)
	got := httptest.NewRecorder()
	Handler(s).ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/api/state", nil))
	want := referenceState(aps, frame, truth)
	if got.Code != want.Code {
		t.Fatalf("status %d, encoding/json %d\n got: %q\nwant: %q", got.Code, want.Code, got.Body, want.Body)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("body differs from encoding/json\n got: %q\nwant: %q", got.Body, want.Body)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Fatalf("Content-Type %q, encoding/json %q", g, w)
	}
	if got.Code == http.StatusOK {
		if cl := got.Header().Get("Content-Length"); cl != strconv.Itoa(got.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte body", cl, got.Body.Len())
		}
	}
}

// FuzzStateJSON is the append encoder's differential oracle: for any AP
// strings, device methods, floats (NaN and ±Inf included) and K, with or
// without truth and with no, an empty or a two-AP layer, GET /api/state
// answers exactly what encoding/json answers: same status, same bytes.
//
// Devices with truth use a fixed method: the error histogram is labeled
// by method, and a fuzzed label per input would grow the registry
// without bound. Truthless devices carry the fuzzed method.
func FuzzStateJSON(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add("campus", "00:11:22:33:44:55", "m-loc", 12.5, -3.25, 100.0, 3, uint8(4), uint8(0b0101), uint8(2))
	f.Add("<script>&amp;", "a\"b\\c", "x y z", 0.0, negZero, 5e-324, -7, uint8(3), uint8(0b111), uint8(2))
	f.Add("\x00\x01\x1f\b\f\n\r\t\x7f", "\xff\xfe", "bad\xc3(utf8", 1e-6, math.Nextafter(1e-6, 0), 1e-7, 0, uint8(2), uint8(1), uint8(2))
	f.Add("s", "b", "m", 1e21, math.Nextafter(1e21, 0), math.MaxFloat64, math.MaxInt32, uint8(5), uint8(0b10), uint8(2))
	f.Add("s", "b", "m", math.NaN(), 1.0, 2.0, 1, uint8(1), uint8(0), uint8(2))
	f.Add("s", "b", "m", 1.0, math.Inf(1), math.Inf(-1), 1, uint8(2), uint8(0b11), uint8(0))
	f.Add("", "", "", 123456789.123, -0.000001, 1e20, -1, uint8(0), uint8(0), uint8(0))
	f.Add("", "", "", 1.0, 2.0, 3.0, 1, uint8(0), uint8(0), uint8(1))
	f.Add("é日本", "🙂", "é\U0001F642", -1e-300, 1e300, -math.MaxFloat64, math.MinInt32, uint8(8), uint8(0xaa), uint8(1))
	f.Fuzz(func(t *testing.T, ssid, bssid, method string, x, y, r float64, k int, nDev, truthMask, apMode uint8) {
		var aps []APMarker
		if apMode%3 == 2 {
			aps = []APMarker{
				{BSSID: bssid, SSID: ssid, Pos: geom.Pt(x, y), Range: r},
				{BSSID: ssid, SSID: bssid + method, Pos: geom.Pt(r, -y), Range: x},
			}
		}
		vals := []float64{x, y, r, -x, x * y, y / 3}
		n := int(nDev % 9)
		frame := make(map[dot11.MAC]core.Estimate, n)
		truths := make(map[dot11.MAC]geom.Point, n)
		for i := 0; i < n; i++ {
			mac := dot11.MAC{byte(i * 0x53), byte(k), 0xdd, byte(i), 0, byte(n - i)}
			est := core.Estimate{Pos: geom.Pt(vals[i%6], vals[(i+1)%6]), K: k - i, Method: method}
			if truthMask>>i&1 == 1 {
				est.Method = "m-loc"
				truths[mac] = geom.Pt(vals[(i+2)%6], vals[(i+3)%6])
			}
			frame[mac] = est
		}
		truth := func(m dot11.MAC) (geom.Point, bool) {
			p, ok := truths[m]
			return p, ok
		}
		checkStateJSON(t, apMode%3 != 0, aps, frame, truth)
	})
}

// TestStateJSONLiterals pins two responses as text, beside the fuzz
// target's comparison: an empty state, and a NaN (ahead of a +Inf) in
// the AP layer, which fails the request naming the first one.
func TestStateJSONLiterals(t *testing.T) {
	rec := httptest.NewRecorder()
	Handler(NewState()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/state", nil))
	if got, want := rec.Body.String(), "{\"aps\":null,\"devices\":[]}\n"; got != want {
		t.Fatalf("empty state body = %q, want %q", got, want)
	}
	s := NewState()
	s.SetAPs([]APMarker{{BSSID: "b", Pos: geom.Pt(math.NaN(), 0), Range: math.Inf(1)}})
	s.PublishFrame(map[dot11.MAC]core.Estimate{{1}: {Pos: geom.Pt(1, 1), Method: "m-loc"}}, nil)
	rec = httptest.NewRecorder()
	Handler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/state", nil))
	if rec.Code != http.StatusInternalServerError || rec.Body.String() != "encode: json: unsupported value: NaN\n" {
		t.Fatalf("NaN AP: status %d body %q", rec.Code, rec.Body)
	}
}

// TestServeStateFrameIntegrity publishes frames and AP layers from one
// goroutine while a client loops GET /api/state: every body is exactly
// one published frame and one published AP layer, never a mix, with
// devices in ascending MAC.String() order. Run it under -race.
func TestServeStateFrameIntegrity(t *testing.T) {
	const rounds = 300
	s := NewState()
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	frameMACs := func(k int) map[string]bool {
		macs := make(map[string]bool)
		for j := 0; j < 1+k%37; j++ {
			macs[dot11.MAC{byte(j * 97), byte(k), 0xdd, byte(j), 0, 1}.String()] = true
		}
		return macs
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 1; k <= rounds; k++ {
			frame := make(map[dot11.MAC]core.Estimate)
			for j := 0; j < 1+k%37; j++ {
				frame[dot11.MAC{byte(j * 97), byte(k), 0xdd, byte(j), 0, 1}] = core.Estimate{
					Pos: geom.Pt(float64(j), float64(k)), K: k, Method: "m-loc"}
			}
			s.PublishFrame(frame, func(m dot11.MAC) (geom.Point, bool) { return geom.Pt(0, 0), m[3]%2 == 0 })
			aps := make([]APMarker, 1+k%11)
			for j := range aps {
				aps[j] = APMarker{BSSID: fmt.Sprintf("ap-%d", j), SSID: fmt.Sprintf("layer-%d", k), Range: 50}
			}
			s.SetAPs(aps)
		}
	}()
	gets := 0
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one last GET sees the final state
		default:
		}
		res, err := http.Get(srv.URL + "/api/state")
		if err != nil {
			t.Fatal(err)
		}
		var payload struct {
			APs     []APMarker     `json:"aps"`
			Devices []DeviceMarker `json:"devices"`
		}
		err = json.NewDecoder(res.Body).Decode(&payload)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		gets++
		if len(payload.Devices) > 0 {
			k := payload.Devices[0].K
			want := frameMACs(k)
			if len(payload.Devices) != len(want) {
				t.Fatalf("GET %d: %d devices, frame %d has %d", gets, len(payload.Devices), k, len(want))
			}
			for i, d := range payload.Devices {
				if d.K != k || !want[d.MAC] {
					t.Fatalf("GET %d: device %+v mixes into frame %d", gets, d, k)
				}
				if i > 0 && payload.Devices[i-1].MAC >= d.MAC {
					t.Fatalf("GET %d: devices out of MAC order: %s then %s", gets, payload.Devices[i-1].MAC, d.MAC)
				}
			}
		}
		if len(payload.APs) > 0 {
			ssid := payload.APs[0].SSID
			k, err := strconv.Atoi(ssid[len("layer-"):])
			if err != nil || len(payload.APs) != 1+k%11 {
				t.Fatalf("GET %d: %d APs for layer %q", gets, len(payload.APs), ssid)
			}
			for _, a := range payload.APs {
				if a.SSID != ssid {
					t.Fatalf("GET %d: AP layer mixes %q and %q", gets, ssid, a.SSID)
				}
			}
		}
	}
	if _, devices := served(t, s); len(devices) != 1+rounds%37 || devices[0].K != rounds {
		t.Fatalf("final frame: %d devices, want frame %d's %d", len(devices), rounds, 1+rounds%37)
	}
}

// cityState is a city-shaped map: nDev located devices (every fourth
// with truth) over nAP APs, positions at full float precision.
func cityState(nDev, nAP int) (*State, map[dot11.MAC]core.Estimate, func(dot11.MAC) (geom.Point, bool)) {
	rng := rand.New(rand.NewSource(1))
	aps := make([]APMarker, nAP)
	for i := range aps {
		aps[i] = APMarker{
			BSSID: dot11.MAC{0x02, 0xaa, 0, 0, byte(i >> 8), byte(i)}.String(),
			Pos:   geom.Pt(rng.Float64()*3000, rng.Float64()*3000),
			Range: 50 + rng.Float64()*100,
		}
	}
	frame := make(map[dot11.MAC]core.Estimate, nDev)
	for len(frame) < nDev {
		var mac dot11.MAC
		rng.Read(mac[:])
		frame[mac] = core.Estimate{Pos: geom.Pt(rng.Float64()*3000, rng.Float64()*3000), K: 1 + rng.Intn(12), Method: "m-loc"}
	}
	truth := func(m dot11.MAC) (geom.Point, bool) { return geom.Pt(1500, 1500), m[5]%4 == 0 }
	s := NewState()
	s.SetAPs(aps)
	return s, frame, truth
}

// TestPublishFrameAllocsFlat: publishing allocates the frame's one slice
// and a fixed number of metric handles, whatever the device count.
func TestPublishFrameAllocsFlat(t *testing.T) {
	allocs := func(nDev int) float64 {
		s, frame, truth := cityState(nDev, 10)
		return testing.AllocsPerRun(20, func() { s.PublishFrame(frame, truth) })
	}
	if small, large := allocs(50), allocs(2000); large > small {
		t.Errorf("PublishFrame allocs grow with devices: %v at 50, %v at 2000", small, large)
	}
}

// TestServeStateAllocsFlat: a served GET allocates the same few objects
// at 50 devices as at 2,000. The body is built in a pooled buffer and
// written once. The recorder writes into one reused buffer, so its own
// growth is not counted.
func TestServeStateAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	allocs := func(nDev int) float64 {
		s, frame, truth := cityState(nDev, 750)
		s.PublishFrame(frame, truth)
		h := Handler(s)
		req := httptest.NewRequest(http.MethodGet, "/api/state", nil)
		body := bytes.NewBuffer(make([]byte, 0, 1<<20))
		return testing.AllocsPerRun(20, func() {
			rec := httptest.NewRecorder()
			body.Reset()
			rec.Body = body
			h.ServeHTTP(rec, req)
		})
	}
	if small, large := allocs(50), allocs(2000); large > small {
		t.Errorf("GET /api/state allocs grow with devices: %v at 50, %v at 2000", small, large)
	}
}

// discard is a ResponseWriter that drops the body, so a benchmark times
// the handler alone.
type discard struct{ h http.Header }

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(int)             {}

// BenchmarkServeState times GET /api/state on a city-shaped map: 1,900
// devices over 750 APs.
func BenchmarkServeState(b *testing.B) {
	s, frame, truth := cityState(1900, 750)
	s.PublishFrame(frame, truth)
	h := Handler(s)
	req := httptest.NewRequest(http.MethodGet, "/api/state", nil)
	w := &discard{h: make(http.Header)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1900, "ns/device")
}

// BenchmarkPublishFrame times PublishFrame on the same city-shaped frame.
func BenchmarkPublishFrame(b *testing.B) {
	s, frame, truth := cityState(1900, 750)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PublishFrame(frame, truth)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1900, "ns/device")
}
