package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apdb"
)

func TestRunDemoRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "cap.pcap")
	apsPath := filepath.Join(dir, "aps.csv")
	obsPath := filepath.Join(dir, "obs.json")
	err := run([]string{
		"-demo", "-pcap", pcapPath, "-aps", apsPath, "-obs", obsPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{pcapPath, apsPath, obsPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
	// Replaying the same artifacts without -demo also works, for every
	// replayable algorithm behind the engine's Localizer interface.
	for _, algo := range []string{"centroid", "closest"} {
		if err := run([]string{"-pcap", pcapPath, "-aps", apsPath, "-algo", algo}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	if !testing.Short() {
		// AP-Rad re-trains radii from the replayed co-observations.
		if err := run([]string{"-pcap", pcapPath, "-aps", apsPath, "-algo", "aprad"}); err != nil {
			t.Fatalf("aprad: %v", err)
		}
	}
}

// TestSaveAPSnapshotRoundTrip: -save-aps-snap writes a binary AP
// snapshot that loads back, leaves no temporary file beside it, and
// replays through -aps-snap in place of the CSV.
func TestSaveAPSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "cap.pcap")
	apsPath := filepath.Join(dir, "aps.csv")
	snapPath := filepath.Join(dir, "aps.snap")
	if err := run([]string{"-demo", "-pcap", pcapPath, "-aps", apsPath, "-save-aps-snap", snapPath}); err != nil {
		t.Fatal(err)
	}
	sn, err := apdb.LoadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Len() == 0 {
		t.Fatal("saved AP snapshot is empty")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("directory holds %d files, want cap.pcap, aps.csv and aps.snap only", len(entries))
	}
	if err := run([]string{"-pcap", pcapPath, "-aps-snap", snapPath, "-algo", "centroid"}); err != nil {
		t.Fatalf("replay from the saved snapshot: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("want error for missing flags")
	}
	if err := run([]string{"-pcap", "x", "-aps", "y", "-algo", "nope"}); err == nil {
		t.Error("want error for missing files")
	}
	if err := run([]string{"-bad"}); err == nil {
		t.Error("want flag error")
	}
	if err := run([]string{"-pcap", "x", "-aps", "y", "-log-level", "loud"}); err == nil {
		t.Error("want log level error")
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
	err = run([]string{"-demo", "-pcap", filepath.Join(t.TempDir(), "c.pcap"), "-aps", filepath.Join(t.TempDir(), "a.csv"), "-metrics-addr", addr})
	if err == nil || !strings.Contains(err.Error(), addr) {
		t.Fatalf("run error = %v, want one naming %s", err, addr)
	}
}

// TestRunRejectsDanglingFlags: a flag that only tunes a feature the
// command line never enabled must fail loudly, naming both flags.
// Replay serves no port of its own, so -pprof needs -metrics-addr.
func TestRunRejectsDanglingFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-pprof"}, "-metrics-addr"},
		{[]string{"-chaos-seed", "7"}, "-chaos"},
		{[]string{"-prof-cpu", "1s"}, "-prof-dir"},
		{[]string{"-trace-sample", "0.5"}, "-trace"},
		{[]string{"-trace-buffer", "8"}, "-trace"},
	}
	for _, c := range cases {
		args := append([]string{"-pcap", "x", "-aps", "y"}, c.args...)
		err := run(args)
		if err == nil {
			t.Errorf("run(%v) accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), c.args[0]) {
			t.Errorf("run(%v) error %q does not name %s and %s", args, err, c.args[0], c.want)
		}
	}
}
