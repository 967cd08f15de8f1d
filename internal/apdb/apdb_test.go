package apdb

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dot11"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/sim"
)

func mac(i byte) dot11.MAC { return dot11.MAC{0, 0, 0, 0, 0, i} }

func TestAddGetLen(t *testing.T) {
	if n := FromEntries(nil).Len(); n != 0 {
		t.Errorf("empty snapshot has %d entries", n)
	}
	e := Entry{BSSID: mac(1), SSID: "a", Pos: geom.Pt(1, 2), MaxRange: 100}
	replaced := e
	replaced.SSID = "b"
	db := FromEntries([]Entry{e, replaced})
	if db.Len() != 1 {
		t.Error("a repeated BSSID should replace, not add")
	}
	got, ok := db.Get(mac(1))
	if !ok || got != replaced {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if _, ok := db.Get(mac(9)); ok {
		t.Error("missing entry found")
	}
}

func TestAllSorted(t *testing.T) {
	var entries []Entry
	for _, b := range []byte{5, 1, 3} {
		entries = append(entries, Entry{BSSID: mac(b)})
	}
	all := FromEntries(entries).All()
	if len(all) != 3 || all[0].BSSID != mac(1) || all[2].BSSID != mac(5) {
		t.Errorf("All = %v", all)
	}
}

func TestEntryDisc(t *testing.T) {
	e := Entry{Pos: geom.Pt(1, 1), MaxRange: 50}
	if d := e.Disc(200); d.R != 50 {
		t.Errorf("known range disc = %v", d)
	}
	e.MaxRange = 0
	if d := e.Disc(200); d.R != 200 {
		t.Errorf("fallback disc = %v", d)
	}
}

func TestFromWorld(t *testing.T) {
	w := sim.NewWorld(1)
	ap, err := sim.NewAP(0, "net", geom.Pt(5, 5), 6, 123)
	if err != nil {
		t.Fatal(err)
	}
	w.AddAP(ap)
	withRange := FromWorld(w, true)
	e, _ := withRange.Get(ap.MAC)
	if e.MaxRange != 123 || e.Pos != ap.Pos || e.SSID != "net" {
		t.Errorf("entry = %+v", e)
	}
	noRange := FromWorld(w, false)
	e, _ = noRange.Get(ap.MAC)
	if e.MaxRange != 0 {
		t.Error("WiGLE-style snapshot must not include range")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	proj := geo.NewProjection(geo.LatLon{Lat: 42.6555, Lon: -71.3254})
	db := FromEntries([]Entry{
		{BSSID: mac(1), SSID: "north", Pos: geom.Pt(100, 200), MaxRange: 80},
		{BSSID: mac(2), SSID: "with,comma", Pos: geom.Pt(-300, 50)},
	})
	var buf bytes.Buffer
	if err := db.ExportCSV(&buf, proj); err != nil {
		t.Fatal(err)
	}
	got, err := ImportCSV(&buf, proj)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("imported %d entries", got.Len())
	}
	e, _ := got.Get(mac(1))
	if e.SSID != "north" || e.MaxRange != 80 {
		t.Errorf("entry = %+v", e)
	}
	// Projection round trip costs a couple of metres at most.
	if e.Pos.Dist(geom.Pt(100, 200)) > 3 {
		t.Errorf("position drifted: %v", e.Pos)
	}
	e2, _ := got.Get(mac(2))
	if e2.SSID != "with,comma" {
		t.Errorf("csv quoting broke SSID: %q", e2.SSID)
	}
}

func TestImportCSVErrors(t *testing.T) {
	proj := geo.NewProjection(geo.LatLon{Lat: 0, Lon: 0})
	cases := []string{
		"",
		"bssid,ssid,lat,lon,range_m\nzz:zz,x,0,0,0",
		"bssid,ssid,lat,lon,range_m\n00:00:00:00:00:01,x,abc,0,0",
		"bssid,ssid,lat,lon,range_m\n00:00:00:00:00:01,x,0,abc,0",
		"bssid,ssid,lat,lon,range_m\n00:00:00:00:00:01,x,0,0,abc",
	}
	for i, c := range cases {
		if _, err := ImportCSV(strings.NewReader(c), proj); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}
