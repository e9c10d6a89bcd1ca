package check

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// decodeDesignCase turns fuzz bytes into a small valid design problem:
// a trace, a window size and an option set. Sizes are capped so the
// exact search stays fast; nil means the bytes cannot shape a problem.
func decodeDesignCase(data []byte) (*trace.Trace, int64, core.Options) {
	if len(data) < 6 {
		return nil, 0, core.Options{}
	}
	tr := &trace.Trace{
		NumReceivers: 1 + int(data[0]%6),
		NumSenders:   1 + int(data[1]%3),
		Horizon:      16 + int64(binary.LittleEndian.Uint16(data[2:4]))%240,
	}
	thresholds := []float64{-1, 0, 0.1, 0.3, 0.5, 1}
	opts := core.Options{
		OverlapThreshold: thresholds[int(data[4])%len(thresholds)],
		SeparateCritical: data[4]&0x40 != 0,
		MaxPerBus:        int(data[5] % 4),
		OptimizeBinding:  data[5]&0x10 != 0,
		MaxNodes:         200_000,
	}
	ws := 1 + int64(data[5]>>5)*int64(data[2])%tr.Horizon
	data = data[6:]
	const evBytes = 6
	for len(data) >= evBytes && len(tr.Events) < 32 {
		start := int64(binary.LittleEndian.Uint16(data[0:2])) % tr.Horizon
		rem := tr.Horizon - start
		tr.Events = append(tr.Events, trace.Event{
			Start:    start,
			Len:      1 + int64(binary.LittleEndian.Uint16(data[2:4]))%rem,
			Sender:   int(data[4]) % tr.NumSenders,
			Receiver: int(data[5]>>1) % tr.NumReceivers,
			Critical: data[5]&1 != 0,
		})
		data = data[evBytes:]
	}
	return tr, ws, opts
}

// FuzzDesignTrace runs the default solver end to end on arbitrary
// small problems: the design must either fail with a classified
// sentinel (infeasible / search limit) or produce a binding that the
// independent auditor certifies against every paper constraint.
func FuzzDesignTrace(f *testing.F) {
	f.Add([]byte{3, 1, 40, 0, 2, 0x13, 0, 0, 8, 0, 0, 2, 5, 0, 6, 0, 1, 4})
	f.Add([]byte{5, 2, 100, 0, 0, 0x31})
	f.Add([]byte{1, 1, 16, 0, 5, 0x02}) // single receiver, no overlap pairs
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, ws, opts := decodeDesignCase(data)
		if tr == nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("decoder produced an invalid trace: %v", err)
		}
		a, err := trace.AnalyzeCtx(context.Background(), tr, ws)
		if err != nil {
			t.Fatalf("Analyze rejected a valid problem: %v", err)
		}
		d, err := core.DesignCrossbarCtx(context.Background(), a, opts)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrSearchLimit) {
				return
			}
			t.Fatalf("unclassified design failure: %v", err)
		}
		if rep := Audit(d, a, opts); !rep.OK() {
			t.Fatalf("design failed its audit: %v (binding %v over %d buses)",
				rep.Err(), d.BusOf, d.NumBuses)
		}
	})
}
