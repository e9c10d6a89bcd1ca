package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	r := NewRecorder()
	for _, l := range []int64{10, 20, 30, 40} {
		r.Add(Sample{Latency: l})
	}
	s := r.Summarize()
	if s.Count != 4 {
		t.Errorf("Count = %d, want 4", s.Count)
	}
	if s.Avg != 25 {
		t.Errorf("Avg = %f, want 25", s.Avg)
	}
	if s.Max != 40 || s.Min != 10 {
		t.Errorf("Max/Min = %d/%d, want 40/10", s.Max, s.Min)
	}
	if s.P50 != 20 {
		t.Errorf("P50 = %d, want 20", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := NewRecorder().Summarize()
	if s.Count != 0 || s.Avg != 0 || s.Max != 0 {
		t.Errorf("empty summary = %+v, want zeros", s)
	}
	if s.String() != "no samples" {
		t.Errorf("String = %q", s.String())
	}
}

func TestSummarizeWhere(t *testing.T) {
	r := NewRecorder()
	r.Add(Sample{Latency: 5, Packet: 2, Initiator: 0})
	r.Add(Sample{Latency: 10, Packet: 4, Initiator: 1})
	r.Add(Sample{Latency: 20, Packet: 8, Initiator: 1, Target: 1})
	s := r.SummarizePacketWhere(func(s Sample) bool { return s.Initiator == 1 && s.Target == 0 })
	if s.Count != 1 || s.Max != 4 {
		t.Errorf("filtered summary = %+v", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 5 {
		t.Errorf("p50 = %d, want 5", got)
	}
	if got := percentile(sorted, 0.95); got != 10 {
		t.Errorf("p95 = %d, want 10", got)
	}
	if got := percentile(sorted, 0.99); got != 10 {
		t.Errorf("p99 = %d, want 10", got)
	}
}

// Property: summary invariants hold for random data.
func TestSummarizeQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRecorder()
		n := 1 + rng.Intn(200)
		var lats []int64
		for i := 0; i < n; i++ {
			l := int64(rng.Intn(1000))
			lats = append(lats, l)
			r.Add(Sample{Latency: l})
		}
		s := r.Summarize()
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		if s.Min != lats[0] || s.Max != lats[n-1] {
			return false
		}
		if s.Avg < float64(s.Min) || s.Avg > float64(s.Max) {
			return false
		}
		if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			return false
		}
		return s.Count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizePacketMetrics(t *testing.T) {
	r := NewRecorder()
	r.Add(Sample{Latency: 20, Packet: 5, Critical: true})
	r.Add(Sample{Latency: 30, Packet: 10})
	s := r.SummarizePacket()
	if s.Avg != 7.5 || s.Max != 10 {
		t.Errorf("packet summary = %+v, want avg 7.5 max 10", s)
	}
	crit := r.SummarizePacketWhere(func(s Sample) bool { return s.Critical })
	if crit.Count != 1 || crit.Avg != 5 {
		t.Errorf("critical packet summary = %+v", crit)
	}
}

func TestSummaryString(t *testing.T) {
	r := NewRecorder()
	r.Add(Sample{Latency: 10})
	got := r.Summarize().String()
	if got == "no samples" || len(got) == 0 {
		t.Errorf("String = %q", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %d", got)
	}
}
