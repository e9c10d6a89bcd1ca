package trace

import (
	"context"
	"math/rand"
	"testing"
)

// burstyTrace builds a trace with bursts at known onsets.
func burstyTrace() *Trace {
	return &Trace{
		NumReceivers: 2,
		NumSenders:   1,
		Horizon:      10000,
		Events: []Event{
			{Start: 1000, Len: 500, Receiver: 0},
			{Start: 4000, Len: 500, Receiver: 1},
			{Start: 7000, Len: 500, Receiver: 0},
		},
	}
}

func TestAdaptiveBoundariesInvariants(t *testing.T) {
	tr := burstyTrace()
	b, err := AdaptiveBoundaries(tr, 400, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[len(b)-1] != tr.Horizon {
		t.Fatalf("boundaries must span [0, horizon]: %v", b)
	}
	for i := 1; i < len(b); i++ {
		w := b[i] - b[i-1]
		if w <= 0 {
			t.Fatalf("non-increasing boundaries: %v", b)
		}
		if w > 3000 {
			t.Errorf("window %d–%d exceeds maxWS", b[i-1], b[i])
		}
		// All but the last window respect minWS (the tail may absorb
		// a short remainder).
		if i < len(b)-1 && w < 400 {
			t.Errorf("window %d–%d below minWS", b[i-1], b[i])
		}
	}
}

func TestAdaptiveBoundariesAlignToOnsets(t *testing.T) {
	tr := burstyTrace()
	b, err := AdaptiveBoundaries(tr, 400, 3000)
	if err != nil {
		t.Fatal(err)
	}
	// Burst onsets at 1000, 4000, 7000 should be boundary points
	// (bucket = minWS/4 = 100 divides them exactly).
	want := map[int64]bool{1000: false, 4000: false, 7000: false}
	for _, edge := range b {
		if _, ok := want[edge]; ok {
			want[edge] = true
		}
	}
	for onset, found := range want {
		if !found {
			t.Errorf("onset %d not a boundary: %v", onset, b)
		}
	}
}

func TestAdaptiveBoundariesUsableByAnalyze(t *testing.T) {
	tr := burstyTrace()
	bs, err := AdaptiveBoundaries(tr, 400, 3000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeWithBoundariesCtx(context.Background(), tr, bs)
	if err != nil {
		t.Fatal(err)
	}
	// Conservation: windowed sums equal totals.
	totals := tr.TotalCycles()
	for r := 0; r < tr.NumReceivers; r++ {
		var sum int64
		for m := 0; m < a.NumWindows(); m++ {
			sum += CellAt(a.Comm, r, m)
		}
		if sum != totals[r] {
			t.Errorf("receiver %d: windowed %d != total %d", r, sum, totals[r])
		}
	}
}

func TestAdaptiveBoundariesShortTrace(t *testing.T) {
	tr := &Trace{NumReceivers: 1, NumSenders: 1, Horizon: 100,
		Events: []Event{{Start: 10, Len: 5, Receiver: 0}}}
	b, err := AdaptiveBoundaries(tr, 200, 400)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 2 || b[0] != 0 || b[1] != 100 {
		t.Errorf("short trace boundaries = %v, want [0 100]", b)
	}
}

func TestAdaptiveBoundariesRejectsBadParams(t *testing.T) {
	tr := burstyTrace()
	if _, err := AdaptiveBoundaries(tr, 0, 100); err == nil {
		t.Error("minWS=0 accepted")
	}
	if _, err := AdaptiveBoundaries(tr, 200, 100); err == nil {
		t.Error("maxWS < minWS accepted")
	}
}

func TestAdaptiveBoundariesQuickRandomTraces(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{
			NumReceivers: 1 + rng.Intn(5),
			NumSenders:   1,
			Horizon:      int64(2000 + rng.Intn(20000)),
		}
		for e := 0; e < rng.Intn(60); e++ {
			start := rng.Int63n(tr.Horizon - 100)
			tr.Events = append(tr.Events, Event{
				Start:    start,
				Len:      1 + rng.Int63n(99),
				Receiver: rng.Intn(tr.NumReceivers),
			})
		}
		minWS := int64(100 + rng.Intn(400))
		maxWS := minWS * int64(2+rng.Intn(6))
		b, err := AdaptiveBoundaries(tr, minWS, maxWS)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if b[0] != 0 || b[len(b)-1] != tr.Horizon {
			t.Fatalf("seed %d: bad span %v", seed, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("seed %d: not increasing %v", seed, b)
			}
			if b[i]-b[i-1] > maxWS {
				t.Fatalf("seed %d: window exceeds maxWS: %v", seed, b)
			}
		}
		// The result must be accepted by the analyzer.
		if _, err := AnalyzeWithBoundariesCtx(context.Background(), tr, b); err != nil {
			t.Fatalf("seed %d: analyzer rejected boundaries: %v", seed, err)
		}
	}
}
