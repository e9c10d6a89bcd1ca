package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestSimPinPaperApps pins the simulator's output bit for bit: for
// each of the five paper apps at Seed, the full-crossbar run, the
// shared-bus run and the run on the designed partial crossbars
// (DefaultOptions) are hashed over everything a sim.Result carries —
// every latency sample, both traces with their shapes and horizons,
// per-bus utilization and grants, delivered beats, Completed and
// EndCycle. Any change to event ordering, arbitration or transaction
// timing moves at least one of these hashes.
func TestSimPinPaperApps(t *testing.T) {
	want := map[string]string{
		"Mat1/full":      "6c27981ba444cc8fb5c211b7a69d6ea2d5b8532e5871439d2d45b3b8056b56c7",
		"Mat1/shared":    "71408389a4ade8865b3b624ed4524f033be525dd463018210ba5fee0eb49b0fa",
		"Mat1/designed":  "ca93b85da573fc704c7428d6794139b4bdc3dcc98ca94f4c0fc27ee267c44433",
		"Mat2/full":      "9deec036d2a4c7c27b18b123522b696dd85c84edf6f1bf9754dd0f7e9df01a11",
		"Mat2/shared":    "a3a19f7bfb2e5bb2040b09bdd6223f6f275e1d14f4792f3ee589721234fc7eb3",
		"Mat2/designed":  "3a227868d2684464231e90e951b9c605246b4dfb620020e2676ba0964125aa24",
		"FFT/full":       "be21e81be7326bb8abce33a5e0dceddd0ac143cc8a5bfb53e05030a5a7d92374",
		"FFT/shared":     "74fcd1c5c6bf2df68a03f9d73daabfe05f4eadf5c3559729c879603b08202729",
		"FFT/designed":   "d46d44d8f5e7d5d80641986672c5747eb78b7b377e413f988f2e1714e83a88d5",
		"QSort/full":     "6ab7fa0763ea3f7d8eb8453b569918844030f80842422398628fe5712cde86a6",
		"QSort/shared":   "c134a23fde55d111b982d3394180968970e211763feee3eed6a4d29a9a69a065",
		"QSort/designed": "045f4b7879e50c494f42e00f3a4809126bceda6d9817ad7c30a4d1dadd1fc911",
		"DES/full":       "a6fa3f53c093329d5759d716c8db0d6326c2d61360f2bd7aa8343357195a850d",
		"DES/shared":     "23f2c12dcf2d871a93e336f98943b2745cd503639b0eee1ff96045fc785669db",
		"DES/designed":   "ccb13ec0803439277b76e894e840743a3609835195792f842c526fca93a0c3b1",
	}
	for _, app := range workloads.All(Seed) {
		run, err := Prepare(app)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := run.RunShared()
		if err != nil {
			t.Fatal(err)
		}
		pair, err := run.Design(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		designed, err := run.Validate(pair)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			arch string
			res  *sim.Result
		}{{"full", run.Full}, {"shared", shared}, {"designed", designed}} {
			key := app.Name + "/" + c.arch
			if got := hashSimResult(c.res); got != want[key] {
				t.Errorf("%s: result hash %s, pinned %s", key, got, want[key])
			}
		}
	}
}

// hashSimResult is a SHA-256 over a fixed little-endian encoding of
// every field of r.
func hashSimResult(r *sim.Result) string {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	samples := r.Latency.Samples()
	put(int64(len(samples)))
	for _, s := range samples {
		put(s.Latency, s.Packet, int64(s.Initiator), int64(s.Target), b2i(s.Critical))
	}
	hashTrace(put, r.ReqTrace)
	hashTrace(put, r.RespTrace)
	for _, util := range [][]float64{r.ReqUtil, r.RespUtil} {
		put(int64(len(util)))
		for _, u := range util {
			put(int64(math.Float64bits(u)))
		}
	}
	for _, grants := range [][]int64{r.ReqGrants, r.RespGrants} {
		put(int64(len(grants)))
		put(grants...)
	}
	put(r.ReqBeats, r.RespBeats, int64(r.Completed), r.EndCycle)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashTrace(put func(...int64), tr *trace.Trace) {
	if tr == nil {
		put(-1)
		return
	}
	put(int64(tr.NumSenders), int64(tr.NumReceivers), tr.Horizon, int64(len(tr.Events)))
	for _, e := range tr.Events {
		put(e.Start, e.Len, int64(e.Sender), int64(e.Receiver), b2i(e.Critical))
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
