package core

import "testing"

// TestOptionsFingerprintStable pins the encoded option fingerprints.
// Disk-cache entries are keyed by these hashes, so any change to the
// encoded layout or its canonicalization must bump optionsFPTag — and
// then update this table — rather than silently re-keying the cache.
func TestOptionsFingerprintStable(t *testing.T) {
	const zeroFP = "69e978639f7a43bd71a4e775ca6f7611d7180fd2b10853145e1805e5f884d167"
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"default", DefaultOptions(), "41624f500f4b3853e053823317f163ffbfff354fc1a67a57aa9b855c57d25897"},
		{"zero", Options{}, zeroFP},
		{"branch-bound", Options{Engine: EngineBranchBound}, zeroFP},
		{"milp", Options{Engine: EngineMILP}, "60363c4ad692f0d86b55a4ccfbbc11814f31e660f5dc4297a959482b45890e4a"},
		{"portfolio", Options{Engine: EnginePortfolio}, "bab377644fb8b5b758c37eb58c36e878b59ba7118f5b379a8e0c5fc9345ab87b"},
		{"threshold-disabled", Options{OverlapThreshold: -0.5}, "7aae42d64a2be9439bb11e4274c475fefe86caea894a53d26408adc161329f57"},
		{"threshold-disabled-canonical", Options{OverlapThreshold: -1}, "7aae42d64a2be9439bb11e4274c475fefe86caea894a53d26408adc161329f57"},
		{"max-per-bus-uncapped", Options{MaxPerBus: -3}, zeroFP},
		{"bus-range", Options{MinBuses: 2, MaxBuses: 5}, "f1a20bee27d17725cee062aea86547116d319b1184fcf932d70e48d2739065fc"},
	}
	for _, tc := range cases {
		if got := tc.opts.Fingerprint().String(); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}
