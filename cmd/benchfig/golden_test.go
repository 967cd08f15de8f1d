package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results_all_figs.txt from this build's output")

// goldenPath is the checked-in output of benchfig -seed 1: every figure
// and extension table the reproduction reports.
const goldenPath = "../../results_all_figs.txt"

// TestFiguresMatchGolden pins the paper's figures: benchfig -seed 1 must
// print results_all_figs.txt byte for byte. Logs go to stderr and are
// not compared. A deliberate change to a figure is written back with
// go test ./cmd/benchfig -run TestFiguresMatchGolden -update, and the
// change log says why. It takes about 13 s on 2 vCPU, so go test ./...
// runs it; a -race build, where it takes minutes, and -short skip it.
func TestFiguresMatchGolden(t *testing.T) {
	if testing.Short() || raceBuild {
		t.Skip("regenerates every figure")
	}
	var out bytes.Buffer
	if err := run([]string{"-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(got), len(exp)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Fatalf("figures differ from %s at line %d:\n got: %q\nwant: %q", goldenPath, i+1, g, w)
		}
	}
}
