package trace

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestAnalyzeComm(t *testing.T) {
	tr := &Trace{
		NumReceivers: 2,
		NumSenders:   1,
		Horizon:      100,
		Events: []Event{
			{Start: 0, Len: 30, Sender: 0, Receiver: 0},  // spans windows 0..2
			{Start: 60, Len: 10, Sender: 0, Receiver: 1}, // window 6
		},
	}
	a, err := AnalyzeCtx(context.Background(), tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumWindows() != 10 {
		t.Fatalf("NumWindows = %d, want 10", a.NumWindows())
	}
	for m := 0; m < 3; m++ {
		if got := CellAt(a.Comm, 0, m); got != 10 {
			t.Errorf("Comm[0][%d] = %d, want 10", m, got)
		}
	}
	if got := CellAt(a.Comm, 0, 3); got != 0 {
		t.Errorf("Comm[0][3] = %d, want 0", got)
	}
	if got := CellAt(a.Comm, 1, 6); got != 10 {
		t.Errorf("Comm[1][6] = %d, want 10", got)
	}
}

func TestAnalyzeOverlap(t *testing.T) {
	tr := &Trace{
		NumReceivers: 3,
		NumSenders:   1,
		Horizon:      40,
		Events: []Event{
			{Start: 0, Len: 20, Sender: 0, Receiver: 0},
			{Start: 10, Len: 20, Sender: 0, Receiver: 1},
			{Start: 35, Len: 5, Sender: 0, Receiver: 2},
		},
	}
	a, err := AnalyzeCtx(context.Background(), tr, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Receivers 0 and 1 overlap during [10,20) in window 0 and not after
	// (receiver 0 ends at 20): one 20-cycle window overlapping 10.
	// Receiver 2 overlaps nobody, so (0,1) is the only summary.
	want := []PairSummary{{I: 0, J: 1, Frontier: []WindowOverlap{{Len: 20, Cycles: 10}}}}
	if !reflect.DeepEqual(a.Pairs, want) {
		t.Errorf("Pairs = %+v, want %+v", a.Pairs, want)
	}
	// Aggregate OM (Eq. 1).
	if got := a.OM.At(0, 1); got != 10 {
		t.Errorf("OM[0][1] = %d, want 10", got)
	}
	if got := a.OM.At(0, 2); got != 0 {
		t.Errorf("OM[0][2] = %d, want 0", got)
	}
}

func TestAnalyzeCritical(t *testing.T) {
	tr := &Trace{
		NumReceivers: 2,
		NumSenders:   1,
		Horizon:      20,
		Events: []Event{
			{Start: 0, Len: 10, Sender: 0, Receiver: 0, Critical: true},
			{Start: 5, Len: 10, Sender: 0, Receiver: 1, Critical: true},
		},
	}
	a, err := AnalyzeCtx(context.Background(), tr, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := CellAt(a.CritComm, 0, 0); got != 10 {
		t.Errorf("CritComm[0][0] = %d, want 10", got)
	}
	want := []PairSummary{{I: 0, J: 1, Frontier: []WindowOverlap{{Len: 20, Cycles: 5}}, Critical: true}}
	if !reflect.DeepEqual(a.Pairs, want) {
		t.Errorf("Pairs = %+v, want %+v", a.Pairs, want)
	}
}

func TestAnalyzeCriticalOverlapRequiresBothCritical(t *testing.T) {
	tr := &Trace{
		NumReceivers: 2,
		NumSenders:   1,
		Horizon:      20,
		Events: []Event{
			{Start: 0, Len: 10, Sender: 0, Receiver: 0, Critical: true},
			{Start: 0, Len: 10, Sender: 0, Receiver: 1, Critical: false},
		},
	}
	a, err := AnalyzeCtx(context.Background(), tr, 20)
	if err != nil {
		t.Fatal(err)
	}
	// A plain overlap of 10, and no critical flag.
	want := []PairSummary{{I: 0, J: 1, Frontier: []WindowOverlap{{Len: 20, Cycles: 10}}}}
	if !reflect.DeepEqual(a.Pairs, want) {
		t.Errorf("Pairs = %+v, want %+v", a.Pairs, want)
	}
}

func TestAnalyzeRaggedLastWindow(t *testing.T) {
	tr := &Trace{
		NumReceivers: 1,
		NumSenders:   1,
		Horizon:      25,
		Events:       []Event{{Start: 22, Len: 3, Sender: 0, Receiver: 0}},
	}
	a, err := AnalyzeCtx(context.Background(), tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumWindows() != 3 {
		t.Fatalf("NumWindows = %d, want 3", a.NumWindows())
	}
	if got := a.WindowLen(2); got != 5 {
		t.Errorf("last WindowLen = %d, want 5", got)
	}
	if got := CellAt(a.Comm, 0, 2); got != 3 {
		t.Errorf("Comm in ragged window = %d, want 3", got)
	}
}

func TestAnalyzeWithBoundariesValidation(t *testing.T) {
	tr := validTrace()
	cases := [][]int64{
		{0},              // too short
		{5, 100},         // doesn't start at 0
		{0, 50},          // doesn't end at horizon
		{0, 50, 50, 100}, // not strictly increasing
	}
	for _, b := range cases {
		if _, err := AnalyzeWithBoundariesCtx(context.Background(), tr, b); err == nil {
			t.Errorf("boundaries %v accepted, want error", b)
		}
	}
}

func TestAnalyzeVariableWindows(t *testing.T) {
	tr := &Trace{
		NumReceivers: 1,
		NumSenders:   1,
		Horizon:      100,
		Events:       []Event{{Start: 0, Len: 100, Sender: 0, Receiver: 0}},
	}
	a, err := AnalyzeWithBoundariesCtx(context.Background(), tr, []int64{0, 30, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := CellAt(a.Comm, 0, 0); got != 30 {
		t.Errorf("Comm[0][0] = %d, want 30", got)
	}
	if got := CellAt(a.Comm, 0, 1); got != 70 {
		t.Errorf("Comm[0][1] = %d, want 70", got)
	}
}

func TestSingleWindowEqualsTotals(t *testing.T) {
	tr := validTrace()
	a, err := AnalyzeCtx(context.Background(), tr, tr.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumWindows() != 1 {
		t.Fatalf("NumWindows = %d, want 1", a.NumWindows())
	}
	totals := tr.TotalCycles()
	for i, want := range totals {
		if got := CellAt(a.Comm, i, 0); got != want {
			t.Errorf("Comm[%d][0] = %d, want %d", i, got, want)
		}
	}
}

func TestMaxWindowLoad(t *testing.T) {
	tr := &Trace{
		NumReceivers: 3,
		NumSenders:   1,
		Horizon:      20,
		Events: []Event{
			// Window 0 fully loaded on three receivers -> needs 3 buses.
			{Start: 0, Len: 10, Sender: 0, Receiver: 0},
			{Start: 0, Len: 10, Sender: 0, Receiver: 1},
			{Start: 0, Len: 10, Sender: 0, Receiver: 2},
		},
	}
	a, err := AnalyzeCtx(context.Background(), tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.MaxWindowLoad(); got != 3 {
		t.Errorf("MaxWindowLoad = %d, want 3", got)
	}
}

// Property: sum of Comm over windows equals total cycles per receiver,
// the legacy kernel's per-window overlaps sum to OM, and exactly the
// pairs with a nonzero OM carry a summary, for random traces.
func TestAnalyzeQuickConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{
			NumReceivers: 2 + rng.Intn(4),
			NumSenders:   1 + rng.Intn(3),
			Horizon:      200 + int64(rng.Intn(300)),
		}
		n := rng.Intn(40)
		for e := 0; e < n; e++ {
			start := int64(rng.Intn(int(tr.Horizon - 20)))
			tr.Events = append(tr.Events, Event{
				Start:    start,
				Len:      1 + int64(rng.Intn(19)),
				Sender:   rng.Intn(tr.NumSenders),
				Receiver: rng.Intn(tr.NumReceivers),
				Critical: rng.Intn(5) == 0,
			})
		}
		ws := int64(10 + rng.Intn(100))
		a, err := AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Logf("Analyze failed: %v", err)
			return false
		}
		// Per-receiver busy-cycle conservation. Note: overlapping events
		// to the same receiver are merged (a cycle counts once), so
		// compare against the merged busy sets, not raw event lengths.
		busy, _ := tr.busyByReceiver()
		for i := 0; i < tr.NumReceivers; i++ {
			var sum int64
			for m := 0; m < a.NumWindows(); m++ {
				sum += CellAt(a.Comm, i, m)
			}
			if sum != busy[i].Len() {
				t.Logf("receiver %d: windowed sum %d != busy %d", i, sum, busy[i].Len())
				return false
			}
		}
		// OM equals the window-summed overlaps (Eq. 1), each bounded
		// by both receivers' loads.
		_, rows, err := AnalyzeLegacyRows(context.Background(), tr, ws)
		if err != nil {
			t.Logf("AnalyzeLegacyRows failed: %v", err)
			return false
		}
		summarized := map[[2]int]bool{}
		for _, p := range a.Pairs {
			summarized[[2]int{p.I, p.J}] = true
		}
		for i := 0; i < tr.NumReceivers; i++ {
			for j := i + 1; j < tr.NumReceivers; j++ {
				var sum int64
				for m := 0; m < a.NumWindows(); m++ {
					ov := rows.PairOverlap(i, j, m)
					sum += ov
					if ov > CellAt(a.Comm, i, m) || ov > CellAt(a.Comm, j, m) {
						t.Logf("overlap exceeds comm")
						return false
					}
				}
				if sum != a.OM.At(i, j) {
					t.Logf("OM[%d][%d]=%d != summed %d", i, j, a.OM.At(i, j), sum)
					return false
				}
				if summarized[[2]int{i, j}] != (sum > 0) {
					t.Logf("pair (%d,%d) with OM %d: summary stored %v", i, j, sum, summarized[[2]int{i, j}])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRejectsBadWS(t *testing.T) {
	if _, err := AnalyzeCtx(context.Background(), validTrace(), 0); err == nil {
		t.Error("ws=0 accepted")
	}
	if _, err := AnalyzeCtx(context.Background(), validTrace(), -5); err == nil {
		t.Error("negative ws accepted")
	}
}
