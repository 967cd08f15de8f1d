package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/capwire"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/sniffer"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{nil, "-server"},
		{[]string{"-server", "x", "-wire-seed", "3"}, "-wire-chaos"},
		{[]string{"-server", "x", "-pos", "nope"}, "-pos"},
		{[]string{"-server", "x", "-overflow", "spill"}, "overflow"},
		{[]string{"-server", "x", "-speedup", "0"}, "-speedup"},
		{[]string{"-server", "x", "-duration", "-5"}, "-duration"},
	}
	for _, c := range cases {
		err := run(c.args, nil)
		if err == nil {
			t.Errorf("run(%v) accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) error %q does not mention %s", c.args, err, c.want)
		}
	}
}

func TestParsePos(t *testing.T) {
	p, err := parsePos(" -12.5 , 40 ")
	if err != nil || p.X != -12.5 || p.Y != 40 {
		t.Fatalf("parsePos: %v %v", p, err)
	}
	for _, bad := range []string{"", "1", "a,b", "1;2"} {
		if _, err := parsePos(bad); err == nil {
			t.Errorf("parsePos(%q) accepted", bad)
		}
	}
}

// TestAgentStreamsToServer runs the whole binary path against an
// in-process capwire server: the agent simulates its world, streams the
// capture, flushes on completion, and the server's books balance.
func TestAgentStreamsToServer(t *testing.T) {
	var mu sync.Mutex
	frames := 0
	srv, err := capwire.NewServer(capwire.ServerConfig{
		Ingest: func(agentID string, caps []sniffer.Capture) int {
			mu.Lock()
			frames += len(caps)
			mu.Unlock()
			return len(caps)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)

	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-server", lis.Addr().String(),
			"-agent", "test-agent",
			"-seed", "5", "-aps", "60",
			"-pos", "10,-20",
			"-speedup", "5000", "-duration", "120",
		}, nil)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("agent did not finish")
	}

	mu.Lock()
	got := frames
	mu.Unlock()
	if got == 0 {
		t.Fatal("server ingested no frames")
	}
	agents := srv.Agents()
	if len(agents) != 1 || agents[0].ID != "test-agent" {
		t.Fatalf("agents: %+v", agents)
	}
	a := agents[0]
	if !a.AccountingOk || a.BatchesIngested == 0 || a.FramesIngested != uint64(got) {
		t.Fatalf("accounting: %+v (sink saw %d)", a, got)
	}
}

// TestAgentWorldMatchesMarauder: the agent's scene is the shared campus
// builder's, the one cmd/marauder's buildAttack also uses (pinned by its
// TestAttackSceneIsCampus), so the same seed and AP count give the APs,
// victim and route the engine knows. Otherwise agent traffic is noise.
func TestAgentWorldMatchesMarauder(t *testing.T) {
	w, err := buildWorld(7, 40, geom.Pt(50, 50))
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.NewCampus(7, 40)
	if err != nil {
		t.Fatal(err)
	}
	got := w.campus
	if len(got.World.APs) != 40 || !reflect.DeepEqual(got.World.APs, want.World.APs) {
		t.Fatal("agent APs differ from the shared campus builder's")
	}
	if got.Victim.MAC != want.Victim.MAC {
		t.Fatalf("victim %v, want %v", got.Victim.MAC, want.Victim.MAC)
	}
	if !reflect.DeepEqual(got.Route.Waypoints, want.Route.Waypoints) || got.Route.SpeedMPS != want.Route.SpeedMPS {
		t.Fatal("agent route differs from the shared campus builder's")
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
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-server", "127.0.0.1:1", "-speedup", "5000", "-duration", "30", "-metrics-addr", addr}, nil)
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), addr) {
			t.Fatalf("run error = %v, want one naming %s", err, addr)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return")
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
