package obs

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dot11"
)

func mac(i byte) dot11.MAC { return dot11.MAC{0, 0, 0, 0, 0, i} }

func TestIngestClassification(t *testing.T) {
	s := NewStore()
	dev, ap := mac(1), mac(0xA1)

	s.Ingest(1, dot11.NewProbeRequest(dev, "", 1), false)
	if got := s.Devices(); len(got) != 1 || got[0] != dev {
		t.Errorf("devices = %v", got)
	}
	if got := s.ProbingDevices(); len(got) != 1 || got[0] != dev {
		t.Errorf("probing = %v", got)
	}
	if s.Len() != 0 {
		t.Error("probe request alone should create no pairwise record")
	}

	s.Ingest(2, dot11.NewProbeResponse(ap, dev, "x", 6, 2), true)
	if s.Len() != 1 {
		t.Errorf("records = %d", s.Len())
	}
	if got := s.APSet(dev); len(got) != 1 || got[0] != ap {
		t.Errorf("APSet = %v", got)
	}
	if got := s.APs(); len(got) != 1 || got[0] != ap {
		t.Errorf("APs = %v", got)
	}
}

func TestIngestIgnoresJunk(t *testing.T) {
	s := NewStore()
	s.Ingest(0, nil, false)
	s.Ingest(0, &dot11.Frame{Type: dot11.TypeData}, false)
	s.Ingest(0, dot11.NewBeacon(mac(0xA2), "b", 1, 0, 0), false) // fromAP=false: untrusted
	if s.Len() != 0 || len(s.Devices()) != 0 || len(s.APs()) != 0 {
		t.Error("junk frames must not create state")
	}
	s.Ingest(0, dot11.NewBeacon(mac(0xA2), "b", 1, 0, 0), true)
	if got := s.APs(); len(got) != 1 {
		t.Errorf("beacon fromAP should register the AP, got %v", got)
	}
}

func TestAssociationRecords(t *testing.T) {
	s := NewStore()
	dev, ap := mac(3), mac(0xA3)
	fr := &dot11.Frame{
		Type: dot11.TypeManagement, Subtype: dot11.SubtypeAssocReq,
		Addr1: ap, Addr2: dev, Addr3: ap,
	}
	s.Ingest(5, fr, false)
	if got := s.APSet(dev); len(got) != 1 || got[0] != ap {
		t.Errorf("APSet = %v", got)
	}
	// The device is found but not probing.
	if len(s.ProbingDevices()) != 0 {
		t.Error("assoc traffic must not mark device probing")
	}
	if len(s.Devices()) != 1 {
		t.Error("assoc traffic must mark device found")
	}
}

func TestAPSetWindow(t *testing.T) {
	s := NewStore()
	dev := mac(1)
	s.Ingest(10, dot11.NewProbeResponse(mac(0xA1), dev, "", 1, 1), true)
	s.Ingest(20, dot11.NewProbeResponse(mac(0xA2), dev, "", 6, 2), true)
	s.Ingest(30, dot11.NewProbeResponse(mac(0xA3), dev, "", 11, 3), true)
	if got := s.APSetWindow(dev, 15, 25); len(got) != 1 || got[0] != mac(0xA2) {
		t.Errorf("window = %v", got)
	}
	if got := s.APSet(dev); len(got) != 3 {
		t.Errorf("full set = %v", got)
	}
	if got := s.APSetWindow(dev, 100, 200); len(got) != 0 {
		t.Errorf("empty window = %v", got)
	}
}

func TestDeviceAPSets(t *testing.T) {
	s := NewStore()
	d1, d2 := mac(1), mac(2)
	s.Ingest(1, dot11.NewProbeResponse(mac(0xA1), d1, "", 1, 1), true)
	s.Ingest(1, dot11.NewProbeResponse(mac(0xA2), d1, "", 1, 1), true)
	s.Ingest(1, dot11.NewProbeResponse(mac(0xA2), d1, "", 1, 2), true) // duplicate
	s.Ingest(2, dot11.NewProbeResponse(mac(0xA2), d2, "", 6, 1), true)
	sets := s.DeviceAPSets()
	if len(sets) != 2 {
		t.Fatalf("sets = %v", sets)
	}
	if want := []dot11.MAC{mac(0xA1), mac(0xA2)}; !reflect.DeepEqual(sets[d1], want) {
		t.Errorf("d1 set = %v, want %v (sorted, deduped)", sets[d1], want)
	}
	if len(sets[d2]) != 1 {
		t.Errorf("d2 set = %v", sets[d2])
	}
}

func TestCoObservationIndex(t *testing.T) {
	s := NewStore()
	dev := mac(4)
	s.Ingest(1, dot11.NewProbeResponse(mac(0xA1), dev, "", 1, 1), true)
	s.Ingest(2, dot11.NewProbeResponse(mac(0xA2), dev, "", 6, 1), true)
	idx := s.CoObservationIndex()
	if len(idx[dev]) != 2 {
		t.Errorf("index = %v", idx)
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := mac(byte(g))
			for i := 0; i < 100; i++ {
				s.Ingest(float64(i), dot11.NewProbeResponse(mac(0xA0+byte(i%5)), dev, "", 1, uint16(i)), true)
				s.APSet(dev)
				s.Devices()
			}
		}(g)
	}
	wg.Wait()
	if len(s.Devices()) != 8 {
		t.Errorf("devices = %d, want 8", len(s.Devices()))
	}
	if len(s.APs()) != 5 {
		t.Errorf("aps = %d, want 5", len(s.APs()))
	}
}

func TestDevicesSorted(t *testing.T) {
	s := NewStore()
	for _, b := range []byte{9, 3, 7, 1} {
		s.Ingest(0, dot11.NewProbeRequest(mac(b), "", 0), false)
	}
	devs := s.Devices()
	for i := 1; i < len(devs); i++ {
		if devs[i-1][5] > devs[i][5] {
			t.Fatalf("not sorted: %v", devs)
		}
	}
}

// TestDevicesCacheInvalidation pins the cached device list: every path
// that first sees a device — a probe, a record, a batch, a restore from a
// snapshot — must show up in the next Devices call, and a caller writing
// into a returned slice must not change later answers.
func TestDevicesCacheInvalidation(t *testing.T) {
	s := NewStoreShards(4)
	s.Ingest(0, dot11.NewProbeRequest(mac(5), "", 1), false)
	want := []dot11.MAC{mac(5)}
	if got := s.Devices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("devices = %v, want %v", got, want)
	}
	// Re-sightings change nothing; first sightings through every ingest
	// path invalidate the cached list.
	s.Ingest(1, dot11.NewProbeRequest(mac(5), "", 1), false)
	s.Ingest(2, dot11.NewProbeResponse(mac(0xA1), mac(2), "", 1, 1), true)
	s.IngestFrames([]FrameCapture{{TimeSec: 3, Frame: dot11.NewProbeRequest(mac(9), "", 1)}})
	s.IngestBatch([]Record{{TimeSec: 4, Device: mac(1), AP: mac(0xA2), Kind: KindProbeResponse}})
	want = []dot11.MAC{mac(1), mac(2), mac(5), mac(9)}
	got := s.Devices()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("devices after new sightings = %v, want %v", got, want)
	}
	got[0] = mac(0xEE)
	got = append(got[:1], got[2:]...)
	if again := s.Devices(); !reflect.DeepEqual(again, want) {
		t.Fatalf("caller's writes leaked into the cached list: %v, want %v", again, want)
	}

	// A restored store lists every device of its snapshot, and keeps
	// invalidating on new sightings afterwards.
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Devices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored devices = %v, want %v", got, want)
	}
	r.Ingest(5, dot11.NewProbeRequest(mac(7), "", 1), false)
	want = []dot11.MAC{mac(1), mac(2), mac(5), mac(7), mac(9)}
	if got := r.Devices(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored store after a new sighting = %v, want %v", got, want)
	}
	if got := NewStore().Devices(); got != nil {
		t.Fatalf("empty store devices = %v, want nil", got)
	}
}

// TestDeviceCount checks the O(1) device count equals len(Devices)
// through every path that first sees a device, re-sightings, and a
// restore from a snapshot.
func TestDeviceCount(t *testing.T) {
	s := NewStoreShards(4)
	check := func(s *Store, want int) {
		t.Helper()
		if got, n := s.DeviceCount(), len(s.Devices()); got != want || n != want {
			t.Fatalf("DeviceCount = %d, len(Devices) = %d, want %d", got, n, want)
		}
	}
	check(s, 0)
	s.Ingest(0, dot11.NewProbeRequest(mac(5), "", 1), false)
	s.Ingest(1, dot11.NewProbeRequest(mac(5), "", 1), false)
	check(s, 1)
	s.Ingest(2, dot11.NewProbeResponse(mac(0xA1), mac(2), "", 1, 1), true)
	s.IngestFrames([]FrameCapture{{TimeSec: 3, Frame: dot11.NewProbeRequest(mac(9), "", 1)}})
	s.IngestBatch([]Record{
		{TimeSec: 4, Device: mac(1), AP: mac(0xA2), Kind: KindProbeResponse},
		{TimeSec: 5, Device: mac(1), AP: mac(0xA3), Kind: KindProbeResponse},
	})
	check(s, 4)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := LoadShards(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	check(r, 4)
}

func TestAppendAPSetWindowReuseAndOrder(t *testing.T) {
	s := NewStore()
	dev := mac(1)
	// Deliberately ingest out of MAC order and with duplicate sightings.
	s.Ingest(10, dot11.NewProbeResponse(mac(0xC3), dev, "", 1, 1), true)
	s.Ingest(11, dot11.NewProbeResponse(mac(0xA1), dev, "", 6, 2), true)
	s.Ingest(12, dot11.NewProbeResponse(mac(0xB2), dev, "", 11, 3), true)
	s.Ingest(13, dot11.NewProbeResponse(mac(0xA1), dev, "", 6, 4), true)

	want := []dot11.MAC{mac(0xA1), mac(0xB2), mac(0xC3)}
	if got := s.APSetWindow(dev, 0, 100); !reflect.DeepEqual(got, want) {
		t.Fatalf("APSetWindow = %v, want ascending %v", got, want)
	}

	buf := make([]dot11.MAC, 0, 8)
	got := s.AppendAPSetWindow(buf, dev, 0, 100)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendAPSetWindow = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("AppendAPSetWindow reallocated despite sufficient capacity")
	}
	// Appending preserves a non-empty prefix.
	pre := []dot11.MAC{mac(0xFF)}
	got = s.AppendAPSetWindow(pre, dev, 11.5, 12.5)
	if len(got) != 2 || got[0] != mac(0xFF) || got[1] != mac(0xB2) {
		t.Fatalf("prefix append = %v", got)
	}
}

// TestScanAPSetWindowCounts: the scan reports the records the window
// matched before AP deduplication, and flags the query that re-sorted a
// log dirtied by out-of-order ingest — only that one.
func TestScanAPSetWindowCounts(t *testing.T) {
	s := NewStore()
	dev := mac(1)
	s.Ingest(10, dot11.NewProbeResponse(mac(0xA1), dev, "", 1, 1), true)
	s.Ingest(12, dot11.NewProbeResponse(mac(0xB2), dev, "", 6, 2), true)
	s.Ingest(11, dot11.NewProbeResponse(mac(0xA1), dev, "", 6, 3), true) // out of order
	gamma, scanned, resorted := s.ScanAPSetWindow(nil, dev, 0, 100)
	if len(gamma) != 2 || scanned != 3 || !resorted {
		t.Fatalf("first scan: Γ %v, %d records, resorted %v; want 2 APs, 3 records, resorted", gamma, scanned, resorted)
	}
	if _, scanned, resorted = s.ScanAPSetWindow(nil, dev, 10.5, 100); scanned != 2 || resorted {
		t.Fatalf("second scan: %d records, resorted %v; want 2, not resorted", scanned, resorted)
	}
	if gamma, scanned, _ = s.ScanAPSetWindow(nil, mac(9), 0, 100); len(gamma) != 0 || scanned != 0 {
		t.Fatalf("unknown device: Γ %v, %d records", gamma, scanned)
	}
}

// Regression: in the unsharded seed store, out-of-order detection used a
// plain < comparison against the log tail. A NaN-timestamped record made
// that comparison false forever after, so the log kept its sorted flag
// while actually out of order, and the binary search silently dropped
// every later out-of-order record from window results — the t=10 probe
// below vanished from APSetWindow(0, 20) and even from the full APSet.
func TestAPSetWindowNaNDoesNotDropLaterRecords(t *testing.T) {
	for _, shards := range []int{1, 4} {
		s := NewStoreShards(shards)
		dev := mac(1)
		s.Ingest(50, dot11.NewProbeResponse(mac(0xA2), dev, "", 1, 1), true)
		s.Ingest(math.NaN(), dot11.NewProbeResponse(mac(0xA9), dev, "", 6, 2), true)
		s.Ingest(10, dot11.NewProbeResponse(mac(0xA1), dev, "", 11, 3), true)

		if got := s.APSetWindow(dev, 0, 20); len(got) != 1 || got[0] != mac(0xA1) {
			t.Errorf("shards=%d: window [0,20) = %v, want [%v]", shards, got, mac(0xA1))
		}
		// The NaN record matches no window; the two real ones must both
		// survive in the full set.
		if got := s.APSet(dev); len(got) != 2 {
			t.Errorf("shards=%d: full set = %v, want the 2 finite-time APs", shards, got)
		}
		if s.Len() != 3 {
			t.Errorf("shards=%d: Len = %d, want 3 (NaN record still stored)", shards, s.Len())
		}
	}
}

// An out-of-order record ingested between two window queries (i.e. after
// the first query's re-sort) must appear in the second query's results.
func TestAPSetWindowOutOfOrderAfterResort(t *testing.T) {
	s := NewStoreShards(2)
	dev := mac(1)
	s.Ingest(50, dot11.NewProbeResponse(mac(0xA2), dev, "", 1, 1), true)
	s.Ingest(10, dot11.NewProbeResponse(mac(0xA1), dev, "", 6, 2), true) // dirty the log
	if got := s.APSetWindow(dev, 0, 100); len(got) != 2 {
		t.Fatalf("first query = %v", got) // triggers the re-sort
	}
	s.Ingest(5, dot11.NewProbeResponse(mac(0xA0), dev, "", 11, 3), true) // out of order again
	if got := s.APSetWindow(dev, 0, 8); len(got) != 1 || got[0] != mac(0xA0) {
		t.Fatalf("post-resort out-of-order record dropped: window [0,8) = %v", got)
	}
}

func TestShardRouting(t *testing.T) {
	s := NewStoreShards(8)
	if s.ShardCount() != 8 {
		t.Fatalf("ShardCount = %d", s.ShardCount())
	}
	// 64 devices, one record each: per-shard counts must sum to Len and
	// every device must stay queryable.
	for i := 0; i < 64; i++ {
		dev := dot11.MAC{0xDD, 0, 0, 0, byte(i >> 8), byte(i)}
		s.Ingest(float64(i), dot11.NewProbeResponse(mac(0xA1), dev, "", 1, 1), true)
	}
	total := 0
	for _, n := range s.ShardLens() {
		total += n
	}
	if total != 64 || s.Len() != 64 {
		t.Errorf("shard lens sum %d, Len %d, want 64", total, s.Len())
	}
	if got := len(s.Devices()); got != 64 {
		t.Errorf("devices = %d, want 64", got)
	}
}

func TestNewStoreShardsRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		if got := NewStoreShards(tc.in).ShardCount(); got != tc.want {
			t.Errorf("NewStoreShards(%d).ShardCount() = %d, want %d", tc.in, got, tc.want)
		}
	}
	if got := NewStoreShards(0).ShardCount(); got != DefaultShardCount() {
		t.Errorf("default shard count = %d, want %d", got, DefaultShardCount())
	}
}

func TestIngestFramesBatch(t *testing.T) {
	s := NewStoreShards(4)
	batch := []FrameCapture{
		{TimeSec: 1, Frame: dot11.NewProbeRequest(mac(1), "home", 1)},
		{TimeSec: 2, Frame: dot11.NewProbeResponse(mac(0xA1), mac(1), "x", 6, 2), FromAP: true},
		{TimeSec: 3, Frame: dot11.NewProbeResponse(mac(0xA2), mac(2), "y", 1, 3), FromAP: true},
		{TimeSec: 4, Frame: dot11.NewBeacon(mac(0xA3), "b", 1, 0, 0), FromAP: true},
		{TimeSec: 5, Frame: dot11.NewBeacon(mac(0xA4), "b", 1, 0, 0), FromAP: false}, // untrusted: no-op
		{TimeSec: 6, Frame: nil},
	}
	if n := s.IngestFrames(batch); n != 4 {
		t.Errorf("IngestFrames = %d frames applied, want 4", n)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2 pairwise records", s.Len())
	}
	if got := len(s.Devices()); got != 2 {
		t.Errorf("devices = %d, want 2", got)
	}
	if got := len(s.APs()); got != 3 {
		t.Errorf("aps = %d, want 3 (A1, A2, beacon A3)", got)
	}
	if fp := s.FingerprintOf(mac(1)); len(fp.SSIDs) != 1 || fp.SSIDs[0] != "home" {
		t.Errorf("fingerprint = %v", fp)
	}
}

func TestIngestBatchRecords(t *testing.T) {
	s := NewStoreShards(4)
	recs := []Record{
		{TimeSec: 5, Device: mac(1), AP: mac(0xA1), Kind: KindProbeResponse},
		{TimeSec: 3, Device: mac(2), AP: mac(0xA2), Kind: KindAssociation},
		{TimeSec: 4, Device: mac(1), AP: mac(0xA3), Kind: KindProbeResponse}, // out of order for dev 1
	}
	if n := s.IngestBatch(recs); n != 3 {
		t.Errorf("IngestBatch = %d, want 3", n)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if got := s.APSetWindow(mac(1), 0, 4.5); len(got) != 1 || got[0] != mac(0xA3) {
		t.Errorf("window = %v, want the out-of-order record visible", got)
	}
	if got := len(s.Devices()); got != 2 {
		t.Errorf("devices = %d, want 2 (records mark devices seen)", got)
	}
	if got := len(s.APs()); got != 3 {
		t.Errorf("aps = %d, want 3 (records register APs)", got)
	}
}

func TestAPSetWindowOutOfOrderIngest(t *testing.T) {
	s := NewStore()
	dev := mac(1)
	s.Ingest(50, dot11.NewProbeResponse(mac(0xA2), dev, "", 1, 1), true)
	s.Ingest(10, dot11.NewProbeResponse(mac(0xA1), dev, "", 6, 2), true) // late arrival
	s.Ingest(90, dot11.NewProbeResponse(mac(0xA3), dev, "", 11, 3), true)

	if got := s.APSetWindow(dev, 0, 20); len(got) != 1 || got[0] != mac(0xA1) {
		t.Fatalf("window [0,20) = %v", got)
	}
	if got := s.APSetWindow(dev, 40, 100); len(got) != 2 ||
		got[0] != mac(0xA2) || got[1] != mac(0xA3) {
		t.Fatalf("window [40,100) = %v", got)
	}
	// Another late arrival after the index was re-sorted.
	s.Ingest(15, dot11.NewProbeResponse(mac(0xA4), dev, "", 1, 4), true)
	if got := s.APSetWindow(dev, 0, 20); len(got) != 2 {
		t.Fatalf("window after second late arrival = %v", got)
	}
}
