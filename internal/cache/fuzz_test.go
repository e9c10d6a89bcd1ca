package cache

import (
	"bytes"
	"crypto/sha256"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// withChecksum returns a copy of an entry file with the header's
// checksum recomputed over the payload, so damage past the header
// reaches the gob decoder and the payload checks instead of failing the
// checksum. Files shorter than the header come back unchanged.
func withChecksum(raw []byte) []byte {
	const headerLen = 8 + 4 + sha256.Size
	if len(raw) < headerLen {
		return raw
	}
	out := bytes.Clone(raw)
	sum := sha256.Sum256(out[headerLen:])
	copy(out[12:headerLen], sum[:])
	return out
}

// FuzzCacheEntry hands arbitrary bytes to the disk tier as the entry
// file of one key, once as they are and once with the payload checksum
// recomputed. Every input must load or miss without panicking, and a
// loaded design must have a nonempty BusOf and must not be capped. The
// seeds are a valid entry and the four corruptions TestDiskTierRoundTrip
// rejects.
func FuzzCacheEntry(f *testing.F) {
	k := key{analysis: trace.Fingerprint{1, 2, 3}, options: trace.Fingerprint{4, 5, 6}}
	seedDir := f.TempDir()
	seed := New(Config{Dir: seedDir})
	seed.writeDisk(k, &core.Design{NumBuses: 2, BusOf: []int{0, 1, 0, 1}, MaxBusOverlap: 3})
	valid, err := os.ReadFile(seed.diskPath(k))
	if err != nil {
		f.Fatal(err)
	}
	if d, ok := seed.loadDisk(k); !ok || len(d.BusOf) != 4 {
		f.Fatalf("the valid seed does not load: %v %v", d, ok)
	}
	f.Add(valid)
	for _, c := range diskCorruptions {
		f.Add(c.mutate(bytes.Clone(valid)))
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		s := New(Config{Dir: t.TempDir()})
		for _, b := range [][]byte{raw, withChecksum(raw)} {
			if err := os.WriteFile(s.diskPath(k), b, 0o644); err != nil {
				t.Fatal(err)
			}
			d, ok := s.loadDisk(k)
			if !ok {
				continue
			}
			if d == nil || len(d.BusOf) == 0 || d.Capped {
				t.Fatalf("loaded an entry the tier must reject: %+v", d)
			}
		}
	})
}
