// Package baseline implements the comparison designers the paper
// measures its methodology against (Sections 2 and 7):
//
//   - AverageFlow: crossbar design from average communication traffic,
//     as in prior bus/NoC synthesis work — a single analysis window
//     spanning the whole trace, no overlap constraints, no bus cap.
//     This is one extreme of the paper's design spectrum.
//   - PeakBandwidth: contention-elimination design in the style of
//     Ho–Pinkston (reference [4]): any receivers whose streams ever
//     overlap get separate buses (overlap threshold zero). The other
//     extreme of the spectrum; it over-provisions the crossbar.
//   - RandomBinding: a random feasible binding onto a given bus count,
//     satisfying all constraints (Eq. 3–9) but ignoring the overlap
//     objective — the Section 7.3 binding comparison.
package baseline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/trace"
)

// AverageFlow designs a crossbar from aggregate (whole-trace) traffic
// only. maxPerBus ≤ 0 disables the per-bus cap, matching prior-work
// designs driven purely by average bandwidth.
func AverageFlow(tr *trace.Trace, maxPerBus int) (*core.Design, error) {
	a, err := trace.AnalyzeCtx(context.Background(), tr, tr.Horizon)
	if err != nil {
		return nil, fmt.Errorf("baseline: average-flow analysis: %w", err)
	}
	return core.DesignCrossbar(a, core.Options{
		OverlapThreshold: -1, // overlap constraints relaxed
		SeparateCritical: false,
		MaxPerBus:        maxPerBus,
		OptimizeBinding:  false,
	})
}

// PeakBandwidth designs a contention-free crossbar: receivers that
// overlap at all in any window are separated (threshold 0).
func PeakBandwidth(tr *trace.Trace, ws int64) (*core.Design, error) {
	a, err := trace.AnalyzeCtx(context.Background(), tr, ws)
	if err != nil {
		return nil, fmt.Errorf("baseline: peak-bandwidth analysis: %w", err)
	}
	return core.DesignCrossbar(a, core.Options{
		OverlapThreshold: 0,
		SeparateCritical: true,
		OptimizeBinding:  false,
	})
}

// RandomBinding produces a uniformly random feasible binding of the
// analysis' receivers onto numBuses buses, subject to the same
// constraints the optimizer honors (window bandwidth, conflicts, bus
// cap) but with no overlap objective. It retries shuffled greedy
// placements until one is feasible; maxTries bounds the effort.
func RandomBinding(a *trace.Analysis, opts core.Options, numBuses int, rng *rand.Rand, maxTries int) (*core.Design, error) {
	if numBuses <= 0 {
		return nil, errors.New("baseline: numBuses must be positive")
	}
	if maxTries <= 0 {
		maxTries = 1000
	}
	nT := a.NumReceivers
	maxPerBus := opts.MaxPerBus
	if maxPerBus <= 0 || maxPerBus > nT {
		maxPerBus = nT
	}
	conflicts := core.BuildConflicts(a, opts)
	nW := a.NumWindows()

	order := make([]int, nT)
	for i := range order {
		order[i] = i
	}
	for try := 0; try < maxTries; try++ {
		rng.Shuffle(nT, func(i, j int) { order[i], order[j] = order[j], order[i] })
		busOf := make([]int, nT)
		for i := range busOf {
			busOf[i] = -1
		}
		count := make([]int, numBuses)
		load := make([][]int64, numBuses)
		for b := range load {
			load[b] = make([]int64, nW)
		}
		ok := true
		for _, t := range order {
			// Collect admissible buses, then pick one at random.
			var admissible []int
			for b := 0; b < numBuses; b++ {
				if count[b] >= maxPerBus {
					continue
				}
				good := true
				for other, ob := range busOf {
					if ob == b && conflicts[t][other] {
						good = false
						break
					}
				}
				for _, c := range a.Comm.RowCells(t) {
					if m := int(c.Col); load[b][m]+c.Val > a.WindowLen(m) {
						good = false
						break
					}
				}
				if good {
					admissible = append(admissible, b)
				}
			}
			if len(admissible) == 0 {
				ok = false
				break
			}
			b := admissible[rng.Intn(len(admissible))]
			busOf[t] = b
			count[b]++
			for _, c := range a.Comm.RowCells(t) {
				load[b][c.Col] += c.Val
			}
		}
		if ok {
			return &core.Design{
				NumBuses:      numBuses,
				BusOf:         busOf,
				MaxBusOverlap: core.MaxOverlapOf(a, numBuses, busOf),
			}, nil
		}
	}
	return nil, fmt.Errorf("baseline: no feasible random binding found in %d tries: %w", maxTries, core.ErrInfeasible)
}
