package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dot11"
	"repro/internal/geom"
)

func testWorld(t *testing.T, nAPs int, seed int64) *World {
	t.Helper()
	w := NewWorld(seed)
	aps, err := UniformDeployment(DeploymentConfig{
		N:        nAPs,
		Min:      geom.Pt(-500, -500),
		Max:      geom.Pt(500, 500),
		RangeMin: 100,
		RangeMax: 100,
	}, w.RNG())
	if err != nil {
		t.Fatal(err)
	}
	w.APs = aps
	return w
}

func TestNewMACDeterministicUnique(t *testing.T) {
	a := NewMAC(1, 42)
	b := NewMAC(1, 42)
	if a != b {
		t.Error("NewMAC must be deterministic")
	}
	seen := make(map[dot11.MAC]bool)
	for i := 0; i < 1000; i++ {
		m := NewMAC(1, i)
		if seen[m] {
			t.Fatalf("duplicate MAC at %d", i)
		}
		seen[m] = true
	}
	// Locally administered bit set.
	if a[0]&0x02 == 0 {
		t.Error("MAC should be locally administered")
	}
}

func TestNewAPValidatesChannel(t *testing.T) {
	if _, err := NewAP(0, "x", geom.Pt(0, 0), 99, 100); err == nil {
		t.Error("want error for invalid channel")
	}
	ap, err := NewAP(3, "net", geom.Pt(1, 2), 6, 120)
	if err != nil {
		t.Fatal(err)
	}
	if ap.Disc() != (geom.Circle{C: geom.Pt(1, 2), R: 120}) {
		t.Errorf("disc = %v", ap.Disc())
	}
	if ap.TX.FreqHz != 2.437e9 {
		t.Errorf("freq = %v", ap.TX.FreqHz)
	}
}

func TestCommunicableSpherical(t *testing.T) {
	w := NewWorld(1)
	ap, err := NewAP(0, "a", geom.Pt(0, 0), 6, 100)
	if err != nil {
		t.Fatal(err)
	}
	w.AddAP(ap)
	if !w.Communicable(geom.Pt(99, 0), ap) {
		t.Error("inside range must be communicable")
	}
	if w.Communicable(geom.Pt(101, 0), ap) {
		t.Error("outside range must not be communicable")
	}
	got := w.CommunicableAPs(geom.Pt(0, 0))
	if len(got) != 1 {
		t.Errorf("CommunicableAPs = %v", got)
	}
}

func TestCommunicableLinkBudget(t *testing.T) {
	w := NewWorld(1)
	w.Model = ModelLinkBudget
	ap, err := NewAP(0, "a", geom.Pt(0, 0), 6, 100)
	if err != nil {
		t.Fatal(err)
	}
	w.AddAP(ap)
	if !w.Communicable(geom.Pt(10, 0), ap) {
		t.Error("10 m link must close")
	}
	if w.Communicable(geom.Pt(50000, 0), ap) {
		t.Error("50 km link must not close")
	}
	// Terrain obstruction can break an otherwise-closable link.
	w.Terrain = Hills{{Center: geom.Pt(100, 0), Radius: 20, LossDB: 80}}
	openPos := geom.Pt(0, 200)
	blockedPos := geom.Pt(200, 0)
	if !w.Communicable(openPos, ap) {
		t.Error("unobstructed 200 m link should close")
	}
	if w.Communicable(blockedPos, ap) {
		t.Error("hill-blocked link should not close")
	}
}

func TestAPByMAC(t *testing.T) {
	w := testWorld(t, 5, 2)
	ap, ok := w.APByMAC(w.APs[3].MAC)
	if !ok || ap != w.APs[3] {
		t.Error("APByMAC lookup failed")
	}
	if _, ok := w.APByMAC(dot11.MAC{9, 9, 9, 9, 9, 9}); ok {
		t.Error("unknown MAC should not resolve")
	}
}

func TestTerrain(t *testing.T) {
	if (Flat{}).ExtraLossDB(geom.Pt(0, 0), geom.Pt(1, 1)) != 0 {
		t.Error("flat terrain must add no loss")
	}
	hills := Hills{
		{Center: geom.Pt(50, 0), Radius: 10, LossDB: 20},
		{Center: geom.Pt(0, 50), Radius: 10, LossDB: 30},
	}
	if got := hills.ExtraLossDB(geom.Pt(0, 0), geom.Pt(100, 0)); got != 20 {
		t.Errorf("crossing one hill = %v, want 20", got)
	}
	if got := hills.ExtraLossDB(geom.Pt(0, 0), geom.Pt(0, 100)); got != 30 {
		t.Errorf("crossing other hill = %v, want 30", got)
	}
	if got := hills.ExtraLossDB(geom.Pt(100, 100), geom.Pt(101, 101)); got != 0 {
		t.Errorf("clear path = %v, want 0", got)
	}
	grid := WallGrid{LossDBPerKm: 10}
	if got := grid.ExtraLossDB(geom.Pt(0, 0), geom.Pt(500, 0)); got != 5 {
		t.Errorf("wall grid = %v, want 5", got)
	}
}

func TestSegmentIntersectsDisc(t *testing.T) {
	tests := []struct {
		a, b, c geom.Point
		r       float64
		want    bool
	}{
		{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 0), 1, true},
		{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 2), 1, false},
		{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 0.5), 1, true},
		{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(5, 0), 1, false}, // beyond endpoint
		{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(0, 0.5), 1, true},
	}
	for i, tt := range tests {
		if got := segmentIntersectsDisc(tt.a, tt.b, tt.c, tt.r); got != tt.want {
			t.Errorf("case %d: got %v", i, got)
		}
	}
}

func TestRouteWalk(t *testing.T) {
	route := NewRouteWalk([]geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 100)}, 1)
	if got := route.TotalDuration(); got != 200 {
		t.Errorf("duration = %v, want 200", got)
	}
	tests := []struct {
		t    float64
		want geom.Point
	}{
		{0, geom.Pt(0, 0)},
		{50, geom.Pt(50, 0)},
		{100, geom.Pt(100, 0)},
		{150, geom.Pt(100, 50)},
		{999, geom.Pt(100, 100)},
		{-5, geom.Pt(0, 0)},
	}
	for _, tt := range tests {
		if got := route.PosAt(tt.t); got.Dist(tt.want) > 1e-9 {
			t.Errorf("PosAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestRouteWalkDegenerate(t *testing.T) {
	empty := NewRouteWalk(nil, 1)
	if got := empty.PosAt(10); got != (geom.Point{}) {
		t.Errorf("empty route = %v", got)
	}
	single := NewRouteWalk([]geom.Point{geom.Pt(3, 3)}, 1)
	if got := single.PosAt(10); got != geom.Pt(3, 3) {
		t.Errorf("single waypoint = %v", got)
	}
	if got := single.TotalDuration(); got != 0 {
		t.Errorf("single duration = %v", got)
	}
}

func TestRandomWaypointStaysInBounds(t *testing.T) {
	min, max := geom.Pt(-100, -50), geom.Pt(100, 50)
	m := NewRandomWaypoint(min, max, 1.5, 3600, 99)
	f := func(tRaw uint16) bool {
		p := m.PosAt(float64(tRaw % 3600))
		return p.X >= min.X-1e-9 && p.X <= max.X+1e-9 &&
			p.Y >= min.Y-1e-9 && p.Y <= max.Y+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRandomWaypointDeterministic(t *testing.T) {
	a := NewRandomWaypoint(geom.Pt(0, 0), geom.Pt(10, 10), 1, 100, 7)
	b := NewRandomWaypoint(geom.Pt(0, 0), geom.Pt(10, 10), 1, 100, 7)
	for _, tm := range []float64{0, 10, 55.5, 99} {
		if a.PosAt(tm) != b.PosAt(tm) {
			t.Fatal("same seed must give same trajectory")
		}
	}
}

func TestUniformDeploymentValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []DeploymentConfig{
		{N: 0, Min: geom.Pt(0, 0), Max: geom.Pt(1, 1), RangeMin: 1, RangeMax: 2},
		{N: 5, Min: geom.Pt(1, 1), Max: geom.Pt(0, 0), RangeMin: 1, RangeMax: 2},
		{N: 5, Min: geom.Pt(0, 0), Max: geom.Pt(1, 1), RangeMin: 0, RangeMax: 2},
		{N: 5, Min: geom.Pt(0, 0), Max: geom.Pt(1, 1), RangeMin: 3, RangeMax: 2},
	}
	for i, cfg := range bad {
		if _, err := UniformDeployment(cfg, rng); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestUniformDeploymentProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DeploymentConfig{
		N: 500, Min: geom.Pt(-100, -100), Max: geom.Pt(100, 100),
		RangeMin: 50, RangeMax: 80,
	}
	aps, err := UniformDeployment(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(aps) != 500 {
		t.Fatalf("got %d APs", len(aps))
	}
	macs := make(map[dot11.MAC]bool)
	for _, ap := range aps {
		if ap.Pos.X < -100 || ap.Pos.X > 100 || ap.Pos.Y < -100 || ap.Pos.Y > 100 {
			t.Fatalf("AP out of bounds: %v", ap.Pos)
		}
		if ap.MaxRange < 50 || ap.MaxRange > 80 {
			t.Fatalf("range out of bounds: %v", ap.MaxRange)
		}
		if macs[ap.MAC] {
			t.Fatalf("duplicate MAC %v", ap.MAC)
		}
		macs[ap.MAC] = true
	}
}

// The campus channel mix must reproduce Fig 8's headline: ~93.7% of APs on
// channels 1, 6, 11.
func TestChannelDistributionFig8(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfg := DeploymentConfig{
		N: 5000, Min: geom.Pt(0, 0), Max: geom.Pt(1000, 1000),
		RangeMin: 100, RangeMax: 100,
	}
	aps, err := UniformDeployment(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, ap := range aps {
		counts[ap.Channel]++
	}
	main := counts[1] + counts[6] + counts[11]
	frac := float64(main) / float64(len(aps))
	if frac < 0.90 || frac > 0.97 {
		t.Errorf("channels 1/6/11 fraction = %.3f, want ~0.937", frac)
	}
	if counts[6] < counts[1] || counts[6] < counts[11] {
		t.Error("channel 6 should be the most popular")
	}
}

func TestCampusDeployment(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	if _, err := CampusDeployment(3, rng); err == nil {
		t.Error("want error for tiny campus")
	}
	aps, err := CampusDeployment(200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(aps) != 200 {
		t.Fatalf("got %d APs", len(aps))
	}
}

func TestScanBurst(t *testing.T) {
	w := NewWorld(3)
	ap1, _ := NewAP(0, "a", geom.Pt(10, 0), 1, 100)
	ap2, _ := NewAP(1, "b", geom.Pt(0, 10), 6, 100)
	apFar, _ := NewAP(2, "c", geom.Pt(5000, 0), 11, 100)
	w.AddAP(ap1)
	w.AddAP(ap2)
	w.AddAP(apFar)
	dev := &Device{MAC: NewMAC(0xD0, 1)}
	events := ScanBurst(w, dev, 100, geom.Pt(0, 0), 7)
	nReq, nResp := 0, 0
	for _, ev := range events {
		switch ev.Frame.Subtype {
		case dot11.SubtypeProbeRequest:
			nReq++
			if ev.FromAP {
				t.Error("probe request marked FromAP")
			}
		case dot11.SubtypeProbeResp:
			nResp++
			if !ev.FromAP {
				t.Error("probe response not marked FromAP")
			}
			if ev.Frame.Addr2 == apFar.MAC {
				t.Error("out-of-range AP must not respond")
			}
		}
		if ev.TimeSec < 100 || ev.TimeSec > 101 {
			t.Errorf("event time %v out of burst window", ev.TimeSec)
		}
	}
	if nReq != 11 {
		t.Errorf("probe requests = %d, want 11 (one per channel)", nReq)
	}
	if nResp != 2 {
		t.Errorf("probe responses = %d, want 2", nResp)
	}
}

func TestAssociatedChatter(t *testing.T) {
	w := NewWorld(3)
	near, _ := NewAP(0, "near", geom.Pt(10, 0), 6, 100)
	far, _ := NewAP(1, "far", geom.Pt(90, 0), 6, 100)
	w.AddAP(near)
	w.AddAP(far)
	dev := &Device{MAC: NewMAC(0xD0, 2)}
	evs := AssociatedChatter(w, dev, 5, geom.Pt(0, 0), 1)
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Frame.Addr1 != near.MAC {
		t.Error("chatter should target the nearest AP")
	}
	if evs[0].Frame.Subtype != dot11.SubtypeAssocReq {
		t.Errorf("subtype = %v", evs[0].Frame.Subtype)
	}
	// No APs in range: no chatter.
	if evs := AssociatedChatter(w, dev, 5, geom.Pt(9999, 9999), 1); len(evs) != 0 {
		t.Errorf("expected no events, got %d", len(evs))
	}
}

func TestBeaconTraffic(t *testing.T) {
	w := testWorld(t, 3, 11)
	evs := BeaconTraffic(w, 0, 1.0, 0.1)
	if len(evs) != 30 {
		t.Fatalf("got %d beacons, want 30", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TimeSec < evs[i-1].TimeSec {
			t.Fatal("events not sorted")
		}
	}
	for _, ev := range evs {
		if ev.Frame.Subtype != dot11.SubtypeBeacon || !ev.FromAP {
			t.Fatalf("bad beacon event %+v", ev)
		}
	}
}

func TestWalkTrace(t *testing.T) {
	w := testWorld(t, 50, 13)
	dev := &Device{
		MAC:      NewMAC(0xD0, 3),
		Mobility: NewRouteWalk([]geom.Point{geom.Pt(-400, 0), geom.Pt(400, 0)}, 1.5),
	}
	evs := WalkTrace(w, dev, 300, 30)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	nBursts := 0
	for _, ev := range evs {
		if ev.Frame.Subtype == dot11.SubtypeProbeRequest && ev.Channel == 1 {
			nBursts++
		}
	}
	if nBursts != 10 {
		t.Errorf("bursts = %d, want 10", nBursts)
	}
}

func TestOfficeTraceWeekdayEffect(t *testing.T) {
	w := testWorld(t, 80, 17)
	w.Devices = DefaultPopulation(150, geom.Pt(-500, -500), geom.Pt(500, 500), w.RNG())
	days := OfficeTrace(w, 7, 5, w.RNG()) // start Friday like the paper
	if len(days) != 7 {
		t.Fatalf("got %d days", len(days))
	}
	// Count distinct devices per day; weekdays should average more.
	perDay := make([]int, 7)
	for d, evs := range days {
		seen := make(map[dot11.MAC]bool)
		for _, ev := range evs {
			if !ev.FromAP {
				seen[ev.Frame.Addr2] = true
			}
		}
		perDay[d] = len(seen)
	}
	// Day indices: start Friday(5): d0=Fri, d1=Sat, d2=Sun, d3-6=Mon-Thu.
	weekend := float64(perDay[1]+perDay[2]) / 2
	weekdaySum := 0
	for _, d := range []int{0, 3, 4, 5, 6} {
		weekdaySum += perDay[d]
	}
	weekday := float64(weekdaySum) / 5
	if weekday <= weekend {
		t.Errorf("weekday avg %.1f should exceed weekend avg %.1f (perDay=%v)",
			weekday, weekend, perDay)
	}
}

func TestDevicePosAt(t *testing.T) {
	d := &Device{Home: geom.Pt(5, 5)}
	if d.PosAt(100) != geom.Pt(5, 5) {
		t.Error("nil mobility should stay home")
	}
	d.Mobility = Static{P: geom.Pt(1, 1)}
	if d.PosAt(0) != geom.Pt(1, 1) {
		t.Error("static mobility wrong")
	}
}

func TestShiftedLoss(t *testing.T) {
	base := shiftedLoss{base: rfFreeSpace{}, extraDB: 7}
	if got := base.LossDB(100, 2.4e9) - (rfFreeSpace{}).LossDB(100, 2.4e9); math.Abs(got-7) > 1e-12 {
		t.Errorf("extra loss = %v", got)
	}
}

// rfFreeSpace avoids an import cycle in the test while exercising the
// shiftedLoss wrapper with a trivial model.
type rfFreeSpace struct{}

func (rfFreeSpace) LossDB(distM, freqHz float64) float64 { return distM / 10 }

func TestRSSModel(t *testing.T) {
	w := testWorld(t, 30, 23)
	m := RSSModel{}
	readings := m.ReadRSS(w, geom.Pt(0, 0), nil)
	if len(readings) == 0 {
		t.Fatal("no readings at campus centre")
	}
	for _, r := range readings {
		if r.RSSIDBm < -95 {
			t.Errorf("reading below floor: %v", r.RSSIDBm)
		}
	}
	// Signal falls with distance (noiseless model).
	near, _ := NewAP(900, "near", geom.Pt(10, 0), 6, 100)
	w2 := NewWorld(1)
	w2.AddAP(near)
	r1 := m.ReadRSS(w2, geom.Pt(15, 0), nil)
	r2 := m.ReadRSS(w2, geom.Pt(60, 0), nil)
	if len(r1) != 1 || len(r2) != 1 || r1[0].RSSIDBm <= r2[0].RSSIDBm {
		t.Errorf("RSS not monotone: %v vs %v", r1, r2)
	}
	// Shadowing perturbs readings.
	noisy := RSSModel{ShadowingSigmaDB: 6}
	a := noisy.ReadRSS(w2, geom.Pt(15, 0), rand.New(rand.NewSource(1)))
	if len(a) == 1 && a[0].RSSIDBm == r1[0].RSSIDBm {
		t.Error("shadowing had no effect")
	}
	// Terrain attenuates.
	w2.Terrain = Hills{{Center: geom.Pt(12, 0), Radius: 1, LossDB: 30}}
	blocked := m.ReadRSS(w2, geom.Pt(15, 0), nil)
	if len(blocked) == 1 && blocked[0].RSSIDBm >= r1[0].RSSIDBm {
		t.Error("terrain loss not applied")
	}
}
