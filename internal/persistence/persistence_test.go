package persistence

import (
	"math"
	"testing"
	"time"

	"github.com/imcf/imcf/internal/trace"
)

var p0 = time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)

func openService(t *testing.T) *Service {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func record(t *testing.T, s *Service, item string, kind trace.Kind, offset time.Duration, v float64) {
	t.Helper()
	if err := s.Record(item, kind, trace.Record{Time: p0.Add(offset), Value: v}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestRecordAndQuery(t *testing.T) {
	s := openService(t)
	for i := 0; i < 100; i++ {
		record(t, s, "zone0/temperature", trace.KindTemperature, time.Duration(i)*time.Minute, 20+float64(i%5))
	}
	recs, err := s.Query("zone0/temperature", p0, p0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 60 {
		t.Fatalf("query returned %d records, want 60", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatal("query results unsorted")
		}
	}
}

func TestRecordValidation(t *testing.T) {
	s := openService(t)
	if err := s.Record("", trace.KindLight, trace.Record{Time: p0}); err == nil {
		t.Error("empty item accepted")
	}
	if err := s.Record("x", trace.Kind(99), trace.Record{Time: p0}); err == nil {
		t.Error("invalid kind accepted")
	}
	record(t, s, "x", trace.KindLight, 0, 1)
	if err := s.Record("x", trace.KindTemperature, trace.Record{Time: p0.Add(time.Minute), Value: 2}); err == nil {
		t.Error("kind change accepted")
	}
}

func TestQueryUnknownItem(t *testing.T) {
	s := openService(t)
	if _, err := s.Query("ghost", p0, p0.Add(time.Hour)); err == nil {
		t.Error("unknown item accepted")
	}
}

func TestItemsAndSlashedIDs(t *testing.T) {
	s := openService(t)
	record(t, s, "proto/z0/temperature", trace.KindTemperature, 0, 20)
	record(t, s, "proto/z0/light", trace.KindLight, 0, 40)
	record(t, s, "plain", trace.KindDoor, 0, 1)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	items, err := s.Items()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"plain", "proto/z0/light", "proto/z0/temperature"}
	if len(items) != len(want) {
		t.Fatalf("items = %v", items)
	}
	for i := range want {
		if items[i] != want[i] {
			t.Errorf("items[%d] = %q, want %q", i, items[i], want[i])
		}
	}
	// Slashed item queries work.
	recs, err := s.Query("proto/z0/light", p0, p0.Add(time.Hour))
	if err != nil || len(recs) != 1 || recs[0].Value != 40 {
		t.Errorf("slashed query = %v, %v", recs, err)
	}
}

func TestSegmentsAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s1.Record("item", trace.KindTemperature,
			trace.Record{Time: p0.Add(time.Duration(i) * time.Minute), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s1.Record("item", trace.KindTemperature, trace.Record{Time: p0}); err == nil {
		t.Error("record after close accepted")
	}

	// Second session appends a new segment.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 10; i < 20; i++ {
		if err := s2.Record("item", trace.KindTemperature,
			trace.Record{Time: p0.Add(time.Duration(i) * time.Minute), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s2.Query("item", p0, p0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("merged query = %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.Value != float64(i) {
			t.Fatalf("record %d = %v", i, r.Value)
		}
	}
}

func TestAggregate(t *testing.T) {
	s := openService(t)
	// Two hours of readings: first hour values 10, second hour 20/30.
	for i := 0; i < 60; i += 10 {
		record(t, s, "temp", trace.KindTemperature, time.Duration(i)*time.Minute, 10)
	}
	record(t, s, "temp", trace.KindTemperature, 60*time.Minute, 20)
	record(t, s, "temp", trace.KindTemperature, 90*time.Minute, 30)

	buckets, err := s.Aggregate("temp", p0, p0.Add(2*time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("buckets = %+v", buckets)
	}
	b0, b1 := buckets[0], buckets[1]
	if b0.Count != 6 || b0.Mean != 10 || b0.Min != 10 || b0.Max != 10 {
		t.Errorf("bucket 0 = %+v", b0)
	}
	if b1.Count != 2 || b1.Mean != 25 || b1.Min != 20 || b1.Max != 30 {
		t.Errorf("bucket 1 = %+v", b1)
	}
	if !b1.Start.Equal(p0.Add(time.Hour)) {
		t.Errorf("bucket 1 start = %v", b1.Start)
	}

	if _, err := s.Aggregate("temp", p0, p0.Add(time.Hour), 0); err == nil {
		t.Error("zero bucket accepted")
	}
}

func TestAggregateEmptyRange(t *testing.T) {
	s := openService(t)
	record(t, s, "temp", trace.KindTemperature, 0, 10)
	buckets, err := s.Aggregate("temp", p0.AddDate(1, 0, 0), p0.AddDate(1, 0, 1), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 0 {
		t.Errorf("buckets = %+v", buckets)
	}
}

func TestItemPrefixCollision(t *testing.T) {
	// "a" and "a.b" must not leak into each other's queries even though
	// one escaped name prefixes the other.
	s := openService(t)
	record(t, s, "a", trace.KindTemperature, 0, 1)
	record(t, s, "a.5", trace.KindTemperature, 0, 2)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Query("a", p0, p0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Value != 1 {
		t.Errorf("query a = %v", recs)
	}
}

func TestAggregateValuesFinite(t *testing.T) {
	s := openService(t)
	record(t, s, "x", trace.KindLight, 0, 5)
	buckets, err := s.Aggregate("x", p0, p0.Add(time.Minute), time.Minute)
	if err != nil || len(buckets) != 1 {
		t.Fatalf("%v %v", buckets, err)
	}
	if math.IsInf(buckets[0].Min, 0) || math.IsInf(buckets[0].Max, 0) {
		t.Errorf("bucket min/max not finalized: %+v", buckets[0])
	}
}
