// Package ds provides small data structures shared across the repository:
// interval lists for cycle-accurate occupancy tracking, bitsets for
// branch-and-bound search state, and the symmetric and CSR sparse
// matrices of the traffic analysis.
package ds

import (
	"fmt"
	"sort"
)

// Interval is a half-open cycle range [Start, End).
type Interval struct {
	Start, End int64
}

// Len returns the number of cycles covered by the interval.
func (iv Interval) Len() int64 {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Empty reports whether the interval covers no cycles.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(other Interval) Interval {
	lo, hi := iv.Start, iv.End
	if other.Start > lo {
		lo = other.Start
	}
	if other.End < hi {
		hi = other.End
	}
	if hi < lo {
		hi = lo
	}
	return Interval{lo, hi}
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d)", iv.Start, iv.End)
}

// IntervalSet is a set of cycles represented as sorted, disjoint,
// non-adjacent half-open intervals. The zero value is an empty set.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet builds a set from arbitrary intervals, merging overlaps.
func NewIntervalSet(ivs ...Interval) *IntervalSet {
	s := &IntervalSet{}
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Add inserts an interval, merging it with any intervals it touches.
// Empty intervals are ignored.
func (s *IntervalSet) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	// Fast path: appending at or after the end, the common case when
	// recording a trace in increasing cycle order.
	if n := len(s.ivs); n == 0 || s.ivs[n-1].End < iv.Start {
		s.ivs = append(s.ivs, iv)
		return
	}
	if n := len(s.ivs); s.ivs[n-1].End == iv.Start {
		s.ivs[n-1].End = iv.End
		return
	}
	// General path: locate the first interval whose end reaches iv.Start.
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End >= iv.Start })
	j := i
	lo, hi := iv.Start, iv.End
	for j < len(s.ivs) && s.ivs[j].Start <= hi {
		if s.ivs[j].Start < lo {
			lo = s.ivs[j].Start
		}
		if s.ivs[j].End > hi {
			hi = s.ivs[j].End
		}
		j++
	}
	merged := Interval{lo, hi}
	s.ivs = append(s.ivs[:i], append([]Interval{merged}, s.ivs[j:]...)...)
}

// Len returns the total number of cycles in the set.
func (s *IntervalSet) Len() int64 {
	var total int64
	for _, iv := range s.ivs {
		total += iv.Len()
	}
	return total
}

// Count returns the number of disjoint intervals in the set.
func (s *IntervalSet) Count() int { return len(s.ivs) }

// Intervals returns the underlying sorted, disjoint intervals.
// The returned slice must not be modified.
func (s *IntervalSet) Intervals() []Interval { return s.ivs }

// ClipLen returns the number of cycles of the set inside [lo, hi).
func (s *IntervalSet) ClipLen(lo, hi int64) int64 {
	if hi <= lo || len(s.ivs) == 0 {
		return 0
	}
	// First interval that might intersect [lo, hi).
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > lo })
	var total int64
	for ; i < len(s.ivs) && s.ivs[i].Start < hi; i++ {
		total += s.ivs[i].Intersect(Interval{lo, hi}).Len()
	}
	return total
}

// IntersectLen returns the number of cycles present in both sets.
func (s *IntervalSet) IntersectLen(other *IntervalSet) int64 {
	var total int64
	a, b := s.ivs, other.ivs
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ov := a[i].Intersect(b[j])
		total += ov.Len()
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return total
}

// Intersection returns a new set covering cycles present in both sets.
func (s *IntervalSet) Intersection(other *IntervalSet) *IntervalSet {
	out := &IntervalSet{}
	a, b := s.ivs, other.ivs
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ov := a[i].Intersect(b[j])
		if !ov.Empty() {
			out.Add(ov)
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Contains reports whether the given cycle is in the set.
func (s *IntervalSet) Contains(cycle int64) bool {
	i := sort.Search(len(s.ivs), func(k int) bool { return s.ivs[k].End > cycle })
	return i < len(s.ivs) && s.ivs[i].Start <= cycle
}

// Clone returns a deep copy of the set.
func (s *IntervalSet) Clone() *IntervalSet {
	out := &IntervalSet{ivs: make([]Interval, len(s.ivs))}
	copy(out.ivs, s.ivs)
	return out
}

// Bounds returns the smallest interval covering the whole set, or an
// empty interval if the set is empty.
func (s *IntervalSet) Bounds() Interval {
	if len(s.ivs) == 0 {
		return Interval{}
	}
	return Interval{s.ivs[0].Start, s.ivs[len(s.ivs)-1].End}
}
