package obs

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dot11"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	dev, ap := mac(1), mac(0xA1)
	s.Ingest(1, dot11.NewProbeRequest(dev, "home-net", 1), false)
	s.Ingest(2, dot11.NewProbeResponse(ap, dev, "x", 6, 2), true)
	s.Ingest(3, dot11.NewBeacon(mac(0xA2), "b", 1, 0, 0), true)

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Errorf("records %d != %d", got.Len(), s.Len())
	}
	if !reflect.DeepEqual(got.Devices(), s.Devices()) {
		t.Errorf("devices %v != %v", got.Devices(), s.Devices())
	}
	if !reflect.DeepEqual(got.ProbingDevices(), s.ProbingDevices()) {
		t.Error("probing sets differ")
	}
	if !reflect.DeepEqual(got.APs(), s.APs()) {
		t.Errorf("aps %v != %v", got.APs(), s.APs())
	}
	if !reflect.DeepEqual(got.APSet(dev), s.APSet(dev)) {
		t.Error("AP sets differ")
	}
	if !reflect.DeepEqual(got.FingerprintOf(dev), s.FingerprintOf(dev)) {
		t.Errorf("fingerprints differ: %v vs %v",
			got.FingerprintOf(dev), s.FingerprintOf(dev))
	}
}

func TestSaveLoadEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewStore().Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || len(got.Devices()) != 0 {
		t.Error("empty store should load empty")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("{not json")); err == nil {
		t.Error("want error for garbage input")
	}
}

func TestLoadRejectsDuplicateEntries(t *testing.T) {
	cases := []struct {
		name, snap, wantErr string
	}{
		{
			"duplicate seen",
			`{"records":[],"seen":[{"mac":[0,0,0,0,0,1],"first":1},{"mac":[0,0,0,0,0,2],"first":2},{"mac":[0,0,0,0,0,1],"first":3}],"probing":[],"aps":[]}`,
			"duplicate seen entry for 00:00:00:00:00:01 at index 2 (first at index 0)",
		},
		{
			"duplicate probing",
			`{"records":[],"seen":[],"probing":[[0,0,0,0,0,5],[0,0,0,0,0,5]],"aps":[]}`,
			"duplicate probing entry for 00:00:00:00:00:05 at index 1 (first at index 0)",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.snap))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestLoadShardsRespectsCount(t *testing.T) {
	s := NewStore()
	for i := byte(0); i < 8; i++ {
		s.Ingest(float64(i), dot11.NewProbeResponse(mac(0xA0+i), mac(i), "", 1, 1), true)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadShards(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardCount() != 2 {
		t.Errorf("shard count = %d, want 2", got.ShardCount())
	}
	if got.Len() != s.Len() {
		t.Errorf("record count %d != %d after re-sharded load", got.Len(), s.Len())
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := NewStore()
	for i := byte(0); i < 5; i++ {
		s.Ingest(float64(i), dot11.NewProbeResponse(mac(0xA0+i), mac(i), "", 1, 1), true)
		s.Ingest(float64(i), dot11.NewProbeRequest(mac(i), "net", 1), false)
	}
	var a, b bytes.Buffer
	if err := s.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Save output must be deterministic")
	}
}

// A stored record packs its Kind into 16 bits, so Load refuses a snapshot
// whose record Kind falls outside 0–65535 and names the record.
func TestLoadRejectsOutOfRangeKind(t *testing.T) {
	rec := func(kind int) string {
		return fmt.Sprintf(`{"timeSec":2,"device":[0,0,0,0,0,1],"ap":[0,0,0,0,0,161],"kind":%d}`, kind)
	}
	snap := func(kind int) string {
		return `{"records":[` + rec(1) + `,` + rec(kind) + `],"seen":[],"probing":[],"aps":[]}`
	}
	for _, kind := range []int{-1, 65536, 1 << 40} {
		_, err := Load(strings.NewReader(snap(kind)))
		want := fmt.Sprintf("record 1: kind %d outside 0–65535", kind)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("kind %d: err = %v, want substring %q", kind, err, want)
		}
	}
	if _, err := Load(strings.NewReader(snap(65535))); err != nil {
		t.Errorf("kind 65535: %v", err)
	}
}

// Every declared Kind, Kind 0 and the largest storable Kind survive a
// Save→Load→Save round trip byte for byte, and come back from the store
// unchanged.
func TestSaveLoadKindRoundTrip(t *testing.T) {
	kinds := []Kind{0, KindProbeRequest, KindProbeResponse, KindAssociation, KindBeacon, maxKind}
	var recs []Record
	for i, k := range kinds {
		recs = append(recs, Record{
			TimeSec: float64(i),
			Device:  dot11.MAC{0xFF, 0, 0, 0, 0, byte(i % 2)},
			AP:      dot11.MAC{0xFE, 0xDC, 0xBA, 0x98, 0x76, byte(i)},
			Kind:    k,
		})
	}
	s := NewStoreShards(4)
	s.IngestBatch(recs)
	first := saveBytes(t, s)
	got, err := LoadShards(bytes.NewReader(first), 1)
	if err != nil {
		t.Fatal(err)
	}
	if second := saveBytes(t, got); !bytes.Equal(first, second) {
		t.Fatalf("round trip changed the bytes:\n%s\n%s", first, second)
	}
	var back []Record
	for _, l := range got.CoObservationIndex() {
		back = append(back, l...)
	}
	sort.Slice(back, func(i, j int) bool { return back[i].TimeSec < back[j].TimeSec })
	if !reflect.DeepEqual(back, recs) {
		t.Fatalf("records came back as %v, want %v", back, recs)
	}
}

// IngestBatch panics on a Kind the store cannot hold, before it stores
// any record of the batch.
func TestIngestBatchRejectsOutOfRangeKind(t *testing.T) {
	s := NewStore()
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "record 1: kind 65536 outside 0–65535") {
			t.Fatalf("panic = %v, want the out-of-range kind named", r)
		}
		if s.Len() != 0 || len(s.Devices()) != 0 {
			t.Fatalf("store holds %d records, %d devices after a rejected batch", s.Len(), len(s.Devices()))
		}
	}()
	s.IngestBatch([]Record{
		{TimeSec: 1, Device: mac(1), AP: mac(0xA1), Kind: KindProbeResponse},
		{TimeSec: 2, Device: mac(1), AP: mac(0xA2), Kind: 65536},
	})
}
