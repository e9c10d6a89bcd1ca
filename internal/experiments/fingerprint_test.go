package experiments

import (
	"context"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestFingerprintPinMat2 pins the analysis content hash of the Mat2
// request trace (published seed) at its WindowSizeHint — the window
// the daemon defaults to — as lowercase hex. The hash addresses the
// on-disk design cache, so any change to its canonical byte stream
// must also bump the version tag in internal/trace/fingerprint.go,
// which makes entries written under the old stream misses instead of
// aliases. A failure here without a tag bump is a cache-format break.
func TestFingerprintPinMat2(t *testing.T) {
	const want = "15f4931c5b08fee75f0a6ce5a3bd608b0769b73d5138a8a21d7a61ff22e95101"
	run, err := Prepare(workloads.Mat2(Seed))
	if err != nil {
		t.Fatal(err)
	}
	tr := run.Full.ReqTrace
	a, err := trace.AnalyzeCtx(context.Background(), tr, tr.WindowSizeHint())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumReceivers != 12 || a.NumWindows() != 21536 {
		t.Fatalf("Mat2 request analysis is %d receivers × %d windows, want 12 × 21536", a.NumReceivers, a.NumWindows())
	}
	if got := a.Fingerprint().String(); got != want {
		t.Fatalf("Mat2 request fingerprint %s, pinned %s", got, want)
	}
}
