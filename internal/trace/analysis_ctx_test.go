package trace

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// overlapTrace builds a reproducible trace with overlapping bursts on
// many receivers, enough work for the sharded analysis to actually
// spread across workers.
func overlapTrace(seed int64, nRecv int) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{NumReceivers: nRecv, NumSenders: 2, Horizon: 5000}
	for r := 0; r < nRecv; r++ {
		for e := 0; e < 30; e++ {
			start := int64(rng.Intn(4800))
			tr.Events = append(tr.Events, Event{
				Start:    start,
				Len:      1 + int64(rng.Intn(120)),
				Receiver: r,
				Critical: rng.Intn(10) == 0,
			})
		}
	}
	return tr
}

// TestAnalyzeCtxParallelMatchesSerial: the sharded parallel analysis
// is bit-identical to the single-worker one, whatever GOMAXPROCS is.
func TestAnalyzeCtxParallelMatchesSerial(t *testing.T) {
	tr := overlapTrace(5, 9)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runtime.GOMAXPROCS(1)
	serial, err := AnalyzeCtx(context.Background(), tr, 250)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		par, err := AnalyzeCtx(context.Background(), tr, 250)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("GOMAXPROCS=%d: analysis differs from serial result", procs)
		}
	}
}

func TestAnalyzeCtxCanceled(t *testing.T) {
	tr := overlapTrace(6, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeCtx(ctx, tr, 250); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
