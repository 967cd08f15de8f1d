package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/telemetry/ftdc"
)

func TestRunOnceWritesFlightRecord(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{
		"-once", "-algo", "centroid", "-aps", "80", "-seed", "3",
		"-ftdc-dir", dir, "-sample-interval", "250ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ftdc") {
			path = filepath.Join(dir, e.Name())
		}
	}
	if path == "" {
		t.Fatalf("no .ftdc file in %s", dir)
	}
	chunks, err := ftdc.ReadFile(path)
	if err != nil {
		t.Fatalf("decoding flight record: %v", err)
	}
	if len(chunks) == 0 || len(chunks[0].Samples) == 0 {
		t.Fatal("flight record is empty")
	}
	// A -once pass takes a single end-of-run sample; it must carry the
	// timestamp, the runtime sampler's series and the pipeline's.
	names := map[string]bool{}
	for _, col := range chunks[0].Columns {
		names[col.Name] = true
	}
	for _, want := range []string{
		ftdc.TimeColumn,
		"marauder_process_goroutines",
		"marauder_process_rss_bytes",
	} {
		if !names[want] {
			t.Errorf("flight record missing column %s", want)
		}
	}
}

func TestHealthReportsRecorderStatus(t *testing.T) {
	a, err := buildAttack(3, 80, "centroid")
	if err != nil {
		t.Fatal(err)
	}
	// Recorder off: the detail still carries an explicit Enabled:false
	// report rather than omitting the key.
	detail := a.health(0).Detail.(map[string]any)
	st, ok := detail["ftdc"].(ftdc.Status)
	if !ok {
		t.Fatalf("health detail ftdc = %T, want ftdc.Status", detail["ftdc"])
	}
	if st.Enabled {
		t.Error("nil recorder should report Enabled=false")
	}

	rec, err := ftdc.New(ftdc.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	a.ops.Recorder = rec
	if err := rec.Append(time.Now(), telemetry.Default().Snapshot()); err != nil {
		t.Fatal(err)
	}
	st = a.health(0).Detail.(map[string]any)["ftdc"].(ftdc.Status)
	if !st.Enabled || st.Path == "" {
		t.Errorf("live recorder status = %+v, want Enabled with a path", st)
	}
	if st.Samples+uint64(st.PendingSamples) == 0 {
		t.Errorf("live recorder status shows no samples: %+v", st)
	}
}
