package cpustack

import (
	"regexp"
	"testing"
)

// TestNilStackIsDisabled pins the nil-recorder discipline: every method on
// a nil *Stack is a safe no-op, so the disabled path needs no branches
// beyond the pointer test callers already do.
func TestNilStackIsDisabled(t *testing.T) {
	var s *Stack
	s.Charge(Useful, 10)
	if s.Total() != 0 || s.Get(Useful) != 0 {
		t.Error("nil stack reports charges")
	}
	if s.Snapshot() != nil {
		t.Error("nil stack snapshots non-nil")
	}
}

// TestChargeAndSnapshot checks accumulation and freezing.
func TestChargeAndSnapshot(t *testing.T) {
	s := NewStack()
	s.Charge(Useful, 3)
	s.Charge(MemFillWait, 2)
	s.Charge(Useful, 1)
	s.Charge(StoreBufferFull, 0) // zero charge is a no-op
	if got := s.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	snap := s.Snapshot()
	if snap.Get(Useful) != 4 || snap.Get(MemFillWait) != 2 {
		t.Fatalf("snapshot %v", snap.Buckets)
	}
	if err := snap.CheckConservation(6); err != nil {
		t.Fatal(err)
	}
	if err := snap.CheckConservation(7); err == nil {
		t.Fatal("conservation check accepted a leak")
	}
	s.Charge(Useful, 5)
	if snap.Total() != 6 {
		t.Error("a later charge mutated an existing snapshot")
	}
}

// TestNamesRoundTrip pins the name tables: every bucket has a distinct
// dotted name that resolves back, a metric-safe spelling, and a group.
func TestNamesRoundTrip(t *testing.T) {
	metricRe := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	seen := map[string]bool{}
	for b := Bucket(0); b < NumBuckets; b++ {
		name := b.String()
		if name == "" || seen[name] {
			t.Fatalf("bucket %d: empty or duplicate name %q", b, name)
		}
		seen[name] = true
		back, ok := BucketByName(name)
		if !ok || back != b {
			t.Errorf("BucketByName(%q) = %v, %v; want %v, true", name, back, ok, b)
		}
		if !metricRe.MatchString(b.MetricName()) {
			t.Errorf("metric name %q for %s is not metric-safe", b.MetricName(), name)
		}
		if b.Group() == "" {
			t.Errorf("bucket %s has no group", name)
		}
	}
	if _, ok := BucketByName("no-such-bucket"); ok {
		t.Error("BucketByName accepted an unknown name")
	}
	if got := len(names); got != int(NumBuckets) {
		t.Errorf("names has %d entries, want %d", got, NumBuckets)
	}
}

// TestMapRoundTrip checks the manifest form: zero buckets are omitted,
// unknown names are rejected, and known ones restore exactly.
func TestMapRoundTrip(t *testing.T) {
	s := NewStack()
	s.Charge(Useful, 5)
	s.Charge(IssuePortReject, 7)
	m := s.Snapshot().Map()
	if len(m) != 2 {
		t.Fatalf("Map kept zero buckets: %v", m)
	}
	back, err := FromMap(m)
	if err != nil {
		t.Fatal(err)
	}
	if *back != *s.Snapshot() {
		t.Fatalf("roundtrip mismatch: %v vs %v", back.Buckets, s.Snapshot().Buckets)
	}
	if _, err := FromMap(map[string]uint64{"bogus": 1}); err == nil {
		t.Error("FromMap accepted an unknown bucket")
	}
	if snap, err := FromMap(nil); snap != nil || err != nil {
		t.Error("FromMap(nil) should be (nil, nil)")
	}
	var nilSnap *Snapshot
	if nilSnap.Map() != nil {
		t.Error("nil snapshot maps non-nil")
	}
}
