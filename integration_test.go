package repro

// End-to-end integration test: the entire attack pipeline from simulated
// radio traffic to localized devices on the map, exercising every module
// boundary the way cmd/marauder does.

import (
	"bytes"
	"math"
	"testing"
	"time"

	"repro/internal/apdb"
	"repro/internal/core"
	"repro/internal/dot11"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/mapserver"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/sniffer"
	"repro/internal/wardrive"
)

func buildCampus(t *testing.T) (*sim.World, *sim.Device, *sim.RouteWalk) {
	t.Helper()
	w := sim.NewWorld(99)
	aps, err := sim.UniformDeployment(sim.DeploymentConfig{
		N:        220,
		Min:      geom.Pt(-350, -350),
		Max:      geom.Pt(350, 350),
		RangeMin: 70,
		RangeMax: 130,
	}, w.RNG())
	if err != nil {
		t.Fatal(err)
	}
	w.APs = aps
	route := sim.NewRouteWalk([]geom.Point{
		geom.Pt(-300, -100), geom.Pt(300, -100), geom.Pt(300, 150), geom.Pt(-250, 150),
	}, 1.5)
	victim := &sim.Device{
		MAC:      sim.NewMAC(0xDD, 1),
		Mobility: route,
		TX:       rf.TypicalMobile,
	}
	w.AddDevice(victim)
	return w, victim, route
}

func TestEndToEndAttackPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	w, victim, route := buildCampus(t)

	// 1. Simulate the victim's probing traffic and capture it through the
	// LNA receiver chain, persisting to radiotap pcap and reading it back
	// (as a real deployment would).
	events := sim.WalkTrace(w, victim, route.TotalDuration(), 30)
	sn := sniffer.New(sniffer.Config{
		Pos:   geom.Pt(0, 0),
		Chain: rf.ChainLNA(),
		Plan:  dot11.DefaultPlan(),
	})
	caps := sn.CaptureAll(events)
	if len(caps) == 0 {
		t.Fatal("nothing captured")
	}
	var pcapBuf bytes.Buffer
	epoch := time.Date(2008, 10, 24, 0, 0, 0, 0, time.UTC)
	if err := sn.WritePcapRadiotap(&pcapBuf, epoch, caps); err != nil {
		t.Fatal(err)
	}
	replayed, err := sniffer.ReadPcap(&pcapBuf, epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(caps) {
		t.Fatalf("pcap replay lost frames: %d vs %d", len(replayed), len(caps))
	}

	// 2. Build the observation store from the replayed capture, through
	// the engine's ingest path. No knowledge yet — the attack often
	// captures first and obtains the AP database later.
	eng, err := engine.New(engine.Config{WindowSec: 45})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range replayed {
		_, fromAP := w.APByMAC(c.Frame.Addr2)
		eng.Ingest(c.TimeSec, c.Frame, fromAP)
	}
	store := eng.Store()
	if len(store.APSet(victim.MAC)) == 0 {
		t.Fatal("victim has no observed AP set")
	}

	// 3. External knowledge via the apdb CSV round trip (WiGLE role).
	proj := geo.NewProjection(geo.LatLon{Lat: 42.6555, Lon: -71.3254})
	var csvBuf bytes.Buffer
	if err := apdb.FromWorld(w, true).ExportCSV(&csvBuf, proj); err != nil {
		t.Fatal(err)
	}
	db, err := apdb.ImportCSV(&csvBuf, proj)
	if err != nil {
		t.Fatal(err)
	}
	know := core.KnowledgeFromSnapshot(db)

	// 4. Hand the late-arriving knowledge to the engine (invalidating its
	// Γ cache) and track with M-Loc; errors must be campus-attack grade.
	eng.SetKnowledge(know)
	trail, err := eng.Track(victim.MAC, 0, route.TotalDuration(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(trail) < 5 {
		t.Fatalf("only %d fixes", len(trail))
	}
	meanErr := core.TrackError(trail, route.PosAt)
	if meanErr > 40 {
		t.Errorf("mean tracking error = %.1f m (CSV projection round trip included)", meanErr)
	}

	// 5. AP-Rad from the same observations (radii withheld).
	stripped := know.All()
	for i := range stripped {
		stripped[i].MaxRange = 0
	}
	noRadii := core.NewKnowledge(stripped)
	est, _, err := core.EstimateRadii(noRadii, store.DeviceAPSets(),
		core.APRadConfig{MaxRadius: 160, MaxNeighborConstraints: 12})
	if err != nil {
		t.Fatal(err)
	}
	gamma := store.APSet(victim.MAC)
	if fix, _, err := core.MLocInflated(est, gamma, 4); err == nil {
		if math.IsNaN(fix.Pos.X) {
			t.Error("AP-Rad fix is NaN")
		}
	}

	// 6. AP-Loc from a simulated wardrive over the same campus.
	tuples := wardrive.Collector{World: w}.CollectAlong(route, 20)
	if len(tuples) < 10 {
		t.Fatalf("only %d training tuples", len(tuples))
	}
	trained, err := core.EstimateAPLocations(tuples, core.APLocConfig{TrainingRadius: 130})
	if err != nil {
		t.Fatal(err)
	}
	if trained.Len() < 50 {
		t.Errorf("training located only %d APs", trained.Len())
	}

	// 7. Publish one engine snapshot frame to the map display. The frame
	// spans every locatable device; the victim must be in it.
	frame := eng.Snapshot(trail[0].TimeSec)
	if _, ok := frame[victim.MAC]; !ok {
		t.Error("victim missing from engine snapshot frame")
	}
	state := mapserver.NewState()
	state.APsFromKnowledge(know)
	state.PublishFrame(frame, func(m dot11.MAC) (geom.Point, bool) {
		if m == victim.MAC {
			return route.PosAt(trail[0].TimeSec), true
		}
		return geom.Point{}, false
	})
	// The handler is exercised in mapserver's own tests; here we assert
	// the state accepted the pipeline's outputs without loss.
	if got := know.Len(); got != db.Len() {
		t.Errorf("knowledge size %d != db size %d", got, db.Len())
	}
	if st := eng.Stats(); st.Fixes == 0 {
		t.Error("engine recorded no localization work")
	}
}
