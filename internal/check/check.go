// Package check is the correctness harness of the design pipeline: an
// independent evaluator that keeps the optimizers honest, in the
// spirit of the external evaluators used by automated-NoC-design
// frameworks (see PAPERS.md).
//
// It provides two instruments:
//
//   - an auditor (Audit) that recomputes every paper constraint a
//     produced binding was solved under — Eq. 3 (one bus per target),
//     Eq. 4 (per-window per-bus bandwidth), Eq. 7 (conflict
//     separation), Eq. 8 (targets-per-bus cap) — plus report
//     consistency (the reported maxov of Eq. 11 must equal the
//     recomputed maximum per-bus aggregate overlap, and the reported
//     conflict count the recomputed Eq. 2 count), returning structured
//     violations rather than a bool; and
//   - a seeded problem generator (RandomCase) for differential tests.
//     The solver differential itself is test code (diff_test.go): it
//     runs the branch and bound, its anytime mode and the literal MILP
//     oracle (internal/oracle) on the same problem and asserts
//     identical feasibility verdicts and optimal objectives.
//
// The auditor deliberately shares no code with the design pipeline: it
// re-derives loads from the Analysis tables over every window with
// traffic (not the Pareto-reduced set), the conflict matrix from the
// pair overlap values and the objective from OM with its own loops, so
// a bug in the window reduction, the conflict pre-processing or the
// incremental bookkeeping cannot hide itself.
package check

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/trace"
)

// Kind classifies a violation by the paper constraint it breaks.
type Kind int

const (
	// KindBinding is a structural defect: the binding does not place
	// every receiver on exactly one in-range bus (Eq. 3).
	KindBinding Kind = iota
	// KindCap is a targets-per-bus cap violation (Eq. 8).
	KindCap
	// KindBandwidth is a per-window per-bus bandwidth violation (Eq. 4).
	KindBandwidth
	// KindConflict is a conflict pair sharing a bus (Eq. 2 / Eq. 7),
	// or a reported conflict count that differs from the recomputed
	// one.
	KindConflict
	// KindObjective is an objective inconsistency: the design's
	// reported MaxBusOverlap differs from the recomputed maximum
	// per-bus aggregate overlap (Eq. 11).
	KindObjective
)

func (k Kind) String() string {
	switch k {
	case KindBinding:
		return "binding"
	case KindCap:
		return "cap"
	case KindBandwidth:
		return "bandwidth"
	case KindConflict:
		return "conflict"
	case KindObjective:
		return "objective"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation is one broken constraint, located as precisely as the
// constraint allows. Fields that do not apply hold -1.
type Violation struct {
	Kind Kind
	// Bus is the offending bus, or -1.
	Bus int
	// Window is the offending analysis window, or -1.
	Window int
	// ReceiverI / ReceiverJ locate the offending receiver (pair);
	// ReceiverJ is -1 for single-receiver violations.
	ReceiverI, ReceiverJ int
	// Got / Want quantify the violation where meaningful (load vs
	// window length, reported vs recomputed objective, ...).
	Got, Want int64
	// Msg is the human-readable description.
	Msg string
}

func (v Violation) String() string { return v.Kind.String() + ": " + v.Msg }

// Report is the structured outcome of one audit.
type Report struct {
	// Violations holds every broken constraint found, in deterministic
	// order (structural, cap, bandwidth, conflict, objective).
	Violations []Violation
	// Checked counts the individual constraints evaluated, so a
	// passing report can be told apart from a vacuous one.
	Checked int
}

// OK reports whether the audit found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean report, or an error summarizing up to
// three violations (and the total count) otherwise.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: design violates %d constraint(s): ", len(r.Violations))
	for i, v := range r.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; ...")
			break
		}
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(v.String())
	}
	return fmt.Errorf("%s", b.String())
}

func (r *Report) add(v Violation) { r.Violations = append(r.Violations, v) }

// Audit recomputes every constraint the design was solved under
// against the analysis it was designed from, with the same option set.
// It returns a structured report; Audit(...).Err() is the one-liner
// form. A nil design or analysis yields a single structural violation
// rather than a panic, so the auditor is safe at trust boundaries.
func Audit(d *core.Design, a *trace.Analysis, opts core.Options) *Report {
	r := &Report{}
	if d == nil || a == nil {
		r.add(Violation{Kind: KindBinding, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Msg: "nil design or analysis"})
		return r
	}
	nT := a.NumReceivers

	// Eq. 3 — every receiver on exactly one in-range bus. The slice
	// representation makes "at most one" structural; coverage and
	// range are what can break.
	r.Checked++
	if len(d.BusOf) != nT {
		r.add(Violation{Kind: KindBinding, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Got: int64(len(d.BusOf)), Want: int64(nT),
			Msg: fmt.Sprintf("binding covers %d receivers, analysis has %d", len(d.BusOf), nT)})
		return r // every other check indexes by receiver; stop here
	}
	if d.NumBuses <= 0 {
		r.add(Violation{Kind: KindBinding, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Got: int64(d.NumBuses), Want: 1,
			Msg: fmt.Sprintf("non-positive bus count %d", d.NumBuses)})
		return r
	}
	for t, b := range d.BusOf {
		r.Checked++
		if b < 0 || b >= d.NumBuses {
			r.add(Violation{Kind: KindBinding, Bus: b, Window: -1, ReceiverI: t, ReceiverJ: -1,
				Got: int64(b), Want: int64(d.NumBuses),
				Msg: fmt.Sprintf("receiver %d on bus %d outside [0,%d)", t, b, d.NumBuses)})
		}
	}
	if !r.OK() {
		return r // out-of-range buses would misindex the per-bus tallies
	}

	// Eq. 8 — targets-per-bus cap, resolved exactly as the solvers
	// resolve it (non-positive or over-wide caps mean "no cap").
	maxPerBus := opts.MaxPerBus
	if maxPerBus <= 0 || maxPerBus > nT {
		maxPerBus = nT
	}
	count := make([]int, d.NumBuses)
	for _, b := range d.BusOf {
		count[b]++
	}
	for b, c := range count {
		r.Checked++
		if c > maxPerBus {
			r.add(Violation{Kind: KindCap, Bus: b, Window: -1, ReceiverI: -1, ReceiverJ: -1,
				Got: int64(c), Want: int64(maxPerBus),
				Msg: fmt.Sprintf("bus %d carries %d receivers, cap is %d", b, c, maxPerBus)})
		}
	}

	// Eq. 4 — per-window per-bus bandwidth, over every window with
	// traffic (a window without traffic loads no bus). The solvers
	// constrain only the Pareto-maximal windows; auditing the full set
	// is exactly what catches a bug in that reduction. Violations are
	// reported bus by bus, each bus's windows in ascending order.
	nW := a.NumWindows()
	load := make([]int64, nW)
	var touched []int
	for b := 0; b < d.NumBuses; b++ {
		touched = touched[:0]
		for t, tb := range d.BusOf {
			if tb != b {
				continue
			}
			for _, c := range a.Comm.RowCells(t) {
				m := int(c.Col)
				if c.Val != 0 && load[m] == 0 {
					touched = append(touched, m)
				}
				load[m] += c.Val
			}
		}
		sort.Ints(touched)
		for _, m := range touched {
			r.Checked++
			if l, wl := load[m], a.WindowLen(m); l > wl {
				r.add(Violation{Kind: KindBandwidth, Bus: b, Window: m, ReceiverI: -1, ReceiverJ: -1,
					Got: l, Want: wl,
					Msg: fmt.Sprintf("bus %d loaded %d cycles in window %d of length %d", b, l, m, wl)})
			}
			load[m] = 0
		}
	}

	// Eq. 2 / Eq. 7 — conflict pairs must not share a bus. The
	// conflict matrix is re-derived from the pair summaries with the
	// options the design was solved under, and the count of
	// conflict pairs must match the one the design reports.
	conflicts := 0
	for _, p := range a.Pairs {
		i, j := p.I, p.J
		if !conflictPair(p, opts) {
			continue
		}
		conflicts++
		r.Checked++
		if d.BusOf[i] == d.BusOf[j] {
			r.add(Violation{Kind: KindConflict, Bus: d.BusOf[i], Window: -1, ReceiverI: i, ReceiverJ: j,
				Msg: fmt.Sprintf("conflicting receivers %d and %d share bus %d", i, j, d.BusOf[i])})
		}
	}
	r.Checked++
	if d.Conflicts != conflicts {
		r.add(Violation{Kind: KindConflict, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Got: int64(d.Conflicts), Want: int64(conflicts),
			Msg: fmt.Sprintf("reported %d conflict pairs, recomputed %d", d.Conflicts, conflicts)})
	}

	// Eq. 11 consistency — the reported objective must equal the
	// maximum per-bus aggregate overlap recomputed from OM.
	r.Checked++
	perBus := make([]int64, d.NumBuses)
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if d.BusOf[i] == d.BusOf[j] {
				perBus[d.BusOf[i]] += a.OM.At(i, j)
			}
		}
	}
	var maxov int64
	for _, v := range perBus {
		maxov = max(maxov, v)
	}
	if maxov != d.MaxBusOverlap {
		r.add(Violation{Kind: KindObjective, Bus: -1, Window: -1, ReceiverI: -1, ReceiverJ: -1,
			Got: d.MaxBusOverlap, Want: maxov,
			Msg: fmt.Sprintf("reported max bus overlap %d, recomputed %d", d.MaxBusOverlap, maxov)})
	}
	return r
}

// conflictPair applies paper Eq. 2 to one receiver pair from its
// summary: the pair conflicts when its overlap in some window exceeds
// the threshold fraction of that window's length (a negative threshold
// disables the test; every window has a frontier point no longer that
// overlaps no less), or, with critical separation, when their critical
// streams overlap in some window.
func conflictPair(p trace.PairSummary, opts core.Options) bool {
	if opts.OverlapThreshold >= 0 {
		for _, pt := range p.Frontier {
			if float64(pt.Cycles) > opts.OverlapThreshold*float64(pt.Len) {
				return true
			}
		}
	}
	return opts.SeparateCritical && p.Critical
}
