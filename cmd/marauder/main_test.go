package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapserver"
	"repro/internal/ops"
	"repro/internal/sim"
)

func TestBuildAttackAlgorithms(t *testing.T) {
	// Every algorithm of the paper selects through the one Localizer
	// interface; trained modes flag themselves for RefreshKnowledge.
	wantName := map[string]string{
		"mloc": "m-loc", "centroid": "centroid", "closest": "closest-ap",
		"aprad": "ap-rad", "aploc": "ap-loc",
	}
	for _, algo := range []string{"mloc", "centroid", "closest", "aprad", "aploc"} {
		a, err := buildAttack(1, 120, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(a.campus.World.APs) != 120 {
			t.Fatalf("%s: aps = %d", algo, len(a.campus.World.APs))
		}
		if got := a.eng.Localizer().Name(); got != wantName[algo] {
			t.Fatalf("%s: localizer = %q, want %q", algo, got, wantName[algo])
		}
		if trained := algo == "aprad" || algo == "aploc"; a.trains != trained {
			t.Fatalf("%s: trains = %v", algo, a.trains)
		}
	}
	if _, err := buildAttack(1, 120, "nope"); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestRunOnceBaselines(t *testing.T) {
	for _, algo := range []string{"centroid", "closest"} {
		a, err := buildAttack(3, 150, algo)
		if err != nil {
			t.Fatal(err)
		}
		if err := runOnce(a, algo); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

func TestRunOnceMLoc(t *testing.T) {
	a, err := buildAttack(3, 150, "mloc")
	if err != nil {
		t.Fatal(err)
	}
	if err := runOnce(a, "mloc"); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnceAPRad(t *testing.T) {
	if testing.Short() {
		t.Skip("AP-Rad LP run")
	}
	a, err := buildAttack(3, 150, "aprad")
	if err != nil {
		t.Fatal(err)
	}
	if err := runOnce(a, "aprad"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("want flag error")
	}
	if err := run([]string{"-algo", "nope", "-once"}); err == nil {
		t.Fatal("want algorithm error")
	}
}

func TestCaptureAccumulates(t *testing.T) {
	a, err := buildAttack(5, 150, "mloc")
	if err != nil {
		t.Fatal(err)
	}
	a.captureUpTo(0, 120)
	n := a.eng.Store().Len()
	if n == 0 {
		t.Fatal("no observations after capture")
	}
	a.captureUpTo(120, 240)
	if a.eng.Store().Len() <= n {
		t.Fatal("second capture window added nothing")
	}
}

func TestRunOnceAPLoc(t *testing.T) {
	if testing.Short() {
		t.Skip("wardrive + AP-Rad LP run")
	}
	a, err := buildAttack(3, 150, "aploc")
	if err != nil {
		t.Fatal(err)
	}
	if a.baseKnow.Len() < 50 {
		t.Fatalf("training located only %d APs", a.baseKnow.Len())
	}
	if err := runOnce(a, "aploc"); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadTelemetryFlags(t *testing.T) {
	// Flag validation happens before the attack is built, so these return
	// fast.
	if err := run([]string{"-log-level", "loud", "-once"}); err == nil {
		t.Error("want error for unknown log level")
	}
	if err := run([]string{"-log-format", "yaml", "-once"}); err == nil {
		t.Error("want error for unknown log format")
	}
	if err := run([]string{"-sample-interval", "0s", "-once"}); err == nil || !strings.Contains(err.Error(), "-sample-interval") {
		t.Errorf("-sample-interval 0s: err = %v, want one naming the flag", err)
	}
}

// TestFlagSurface pins the name, type and default of every flag against
// testdata/flags.golden, so moving flags between packages cannot add,
// drop or re-default one.
func TestFlagSurface(t *testing.T) {
	fs, _ := newFlags()
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&got, "%s %T %q\n", f.Name, f.Value, f.DefValue) })
	want, err := os.ReadFile(filepath.Join("testdata", "flags.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestRunFailsOnBoundMetricsAddr: an -metrics-addr already in use fails
// the run, naming the address, instead of logging after startup.
func TestRunFailsOnBoundMetricsAddr(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	addr := taken.Addr().String()
	err = run([]string{"-once", "-aps", "40", "-seed", "3", "-metrics-addr", addr})
	if err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("run error = %v, want one naming %s", err, addr)
	}
}

// TestMapServerReadHeaderTimeout: the map port bounds header reads like
// every command HTTP server, so a peer trickling headers cannot pin a
// connection.
func TestMapServerReadHeaderTimeout(t *testing.T) {
	srv := mapServer(mapserver.NewState(), mapserver.HandlerOpts{})
	if srv.ReadHeaderTimeout != ops.ReadHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Fatalf("map server ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, ops.ReadHeaderTimeout)
	}
}

// TestAttackSceneIsCampus: the attack runs on the shared campus builder's
// scene, the one cmd/capagent's agents capture (pinned by its
// TestAgentWorldMatchesMarauder): same seed and AP count, same APs,
// victim and route.
func TestAttackSceneIsCampus(t *testing.T) {
	a, err := buildAttack(7, 40, "centroid")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.NewCampus(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	got := a.campus
	if len(got.World.APs) != 40 || !reflect.DeepEqual(got.World.APs, want.World.APs) {
		t.Fatal("attack APs differ from the shared campus builder's")
	}
	if got.Victim.MAC != want.Victim.MAC {
		t.Fatalf("victim %v, want %v", got.Victim.MAC, want.Victim.MAC)
	}
	if !reflect.DeepEqual(got.Route.Waypoints, want.Route.Waypoints) || got.Route.SpeedMPS != want.Route.SpeedMPS {
		t.Fatal("attack route differs from the shared campus builder's")
	}
}
