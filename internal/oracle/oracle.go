package oracle

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/trace"
)

// Design runs the methodology on one direction's analysis with the
// literal MILPs: a binary search for the least feasible bus count
// (paper Eq. 10), then, when opts.OptimizeBinding is set, the binding
// MILP at that count (Eq. 11). It shares only the conflict matrix
// (core.BuildConflicts, paper Eq. 2) with core. The search range is
// [max(1, MinBuses), MaxBuses or the receiver count], clamped like
// core's. A range without a feasible count fails with an error wrapping
// core.ErrInfeasible.
//
// The design is never Capped: a MILP solve that runs out of nodes fails.
func Design(ctx context.Context, a *trace.Analysis, opts core.Options) (*core.Design, error) {
	if a == nil || a.NumReceivers == 0 {
		return nil, fmt.Errorf("oracle: empty analysis")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	nT := a.NumReceivers
	conflicts := core.BuildConflicts(a, opts)
	fr := NewFormulator(a, conflicts, opts.MaxPerBus)

	ub := nT
	if opts.MaxBuses > 0 && opts.MaxBuses < ub {
		ub = opts.MaxBuses
	}
	lb := min(max(1, opts.MinBuses), ub)

	best, bestBus := -1, []int(nil)
	var nodes int64
	for lo, hi := lb, ub; lo <= hi; {
		k := (lo + hi) / 2
		busOf, n, err := fr.Probe(ctx, k, false)
		nodes += int64(n)
		if err != nil {
			return nil, err
		}
		if busOf != nil {
			best, bestBus = k, busOf
			hi = k - 1
		} else {
			lo = k + 1
		}
	}
	if best == -1 {
		return nil, fmt.Errorf("oracle: no feasible crossbar with at most %d buses: %w", ub, core.ErrInfeasible)
	}
	if opts.OptimizeBinding {
		busOf, n, err := fr.Probe(ctx, best, true)
		nodes += int64(n)
		if err != nil {
			return nil, err
		}
		if busOf == nil {
			return nil, fmt.Errorf("oracle: binding MILP infeasible at %d buses, which the feasibility MILP proved feasible", best)
		}
		bestBus = busOf
	}

	nConf := 0
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if conflicts[i][j] {
				nConf++
			}
		}
	}
	return &core.Design{
		NumBuses:      best,
		BusOf:         bestBus,
		MaxBusOverlap: core.MaxOverlapOf(a, best, bestBus),
		Conflicts:     nConf,
		SearchNodes:   nodes,
	}, nil
}
