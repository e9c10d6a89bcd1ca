package core

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/trace"
)

// optionsFPTag versions the option-fingerprint encoding; bump on any
// layout or canonicalization change.
const optionsFPTag = "stbus.options.v1"

// Fingerprint returns a stable content hash of the option fields that
// determine the designed crossbar, canonicalized so equivalent settings
// hash equal:
//
//   - any negative OverlapThreshold disables pre-processing, so all
//     negatives collapse to -1;
//   - MaxPerBus <= 0 means "no cap" and collapses to 0 (the solve-time
//     clamp to the receiver count depends on the analysis, not the
//     options, and the analysis fingerprint covers the receiver count).
//
// Fields that provably do not change the designed crossbar are
// excluded: Workers (deprecated and ignored), Audit (a post-hoc check), Cache (where to look for
// the answer, not what the answer is), and MaxNodes — an effort budget,
// sound to exclude because the cache never stores Capped or failed
// designs, and an un-capped design is budget-independent.
func (o Options) Fingerprint() trace.Fingerprint {
	h := sha256.New()
	buf := make([]byte, 0, 128)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(optionsFPTag)))
	buf = append(buf, optionsFPTag...)

	threshold := o.OverlapThreshold
	if threshold < 0 {
		threshold = -1
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(threshold))
	buf = append(buf, b2u8(o.SeparateCritical))
	maxPerBus := o.MaxPerBus
	if maxPerBus <= 0 {
		maxPerBus = 0
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(maxPerBus))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.MinBuses))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(o.MaxBuses))
	buf = append(buf, b2u8(o.OptimizeBinding))
	// The next eight bytes once held the solver engine and the last
	// byte a legacy-MILP solver flag. Both choices are gone and the
	// slots are always 0, as the default engine and the unset flag
	// wrote them; writing them keeps every default-engine option set
	// hashing as before, so existing stbus.options.v1 cache entries
	// stay valid.
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = append(buf, 0)

	h.Write(buf)
	var f trace.Fingerprint
	h.Sum(f[:0])
	return f
}

func b2u8(b bool) byte {
	if b {
		return 1
	}
	return 0
}
