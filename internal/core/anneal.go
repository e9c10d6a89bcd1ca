package core

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/obs"
)

// Annealing schedule of the capped-binding fallback. The seed is fixed
// so the annealed binding is deterministic.
const (
	annealSeed         = 1
	annealMovesPerRecv = 4000 // proposed moves per receiver
	annealCoolingRange = 1000 // start temperature / end temperature
	annealPollInterval = 1024 // moves between stop-context polls
)

// bindAnytime is the binding probe at k buses: the two-pass branch and
// bound, from the warm incumbent seedBus when one is given (see
// bindExact and solveSeeded). A decided search returns its answer. A
// search the node budget cuts short is followed, on the same
// goroutine, by an anneal from the greedy binding run to completion,
// and the probe returns the strictly better of the search's incumbent
// and the annealed binding, capped. A canceled context fails the probe
// with ErrCanceled.
func (p *assignProblem) bindAnytime(ctx context.Context, k int, seedBus []int, seedObj int64) (*assignResult, error) {
	res, err := p.bindExact(ctx, k, seedBus, seedObj)
	if err != nil || !res.capped {
		return res, err
	}
	start, _, ok := p.greedyBinding(k)
	if !ok {
		return res, nil
	}
	busOf, obj := p.anneal(ctx, k, start)
	if ctx.Err() != nil {
		return nil, canceledErr(ctx)
	}
	if !p.validBinding(k, busOf) {
		return res, nil
	}
	obs.FlightRecorderFrom(ctx).Emit(obs.Event{Kind: obs.EvIncumbent, K: k, Val: obj, Who: "anneal"})
	if obj < res.maxOverlap {
		res.busOf, res.maxOverlap = busOf, obj
	}
	return res, nil
}

// anneal improves a feasible binding by simulated annealing on the
// binding objective (maximum per-bus aggregate overlap, paper Eq. 11).
// It is the fallback of a binding search that runs out of budget
// (bindAnytime): a heuristic whose result only ever stands in as a
// capped incumbent.
// Moves relocate one receiver to another bus or swap two receivers,
// and are only accepted when the result stays feasible (bandwidth,
// conflicts, cap).
//
// The start binding must be feasible for k buses. The anneal polls ctx
// every annealPollInterval moves and, once it is done, returns the
// best binding found so far.
func (p *assignProblem) anneal(ctx context.Context, k int, start []int) ([]int, int64) {
	nT := p.nT
	nW := len(p.ws)
	moves := annealMovesPerRecv * nT

	busOf := append([]int(nil), start...)
	load := make([][]int64, k)
	for b := range load {
		load[b] = make([]int64, nW)
	}
	count := make([]int, k)
	overlap := make([]int64, k)
	for r, b := range busOf {
		count[b]++
		for w := 0; w < nW; w++ {
			load[b][w] += p.comm[r][w]
		}
	}
	for i := 0; i < nT; i++ {
		for j := i + 1; j < nT; j++ {
			if busOf[i] == busOf[j] {
				overlap[busOf[i]] += p.om.At(i, j)
			}
		}
	}
	objective := func() int64 {
		var m int64
		for _, v := range overlap {
			if v > m {
				m = v
			}
		}
		return m
	}

	// pairDelta is the overlap receiver r contributes to bus b
	// (excluding a receiver being moved away in the same step).
	pairDelta := func(r, b, exclude int) int64 {
		var d int64
		for other, ob := range busOf {
			if ob == b && other != r && other != exclude {
				d += p.om.At(r, other)
			}
		}
		return d
	}
	fitsBandwidth := func(r, b int) bool {
		for w := 0; w < nW; w++ {
			if load[b][w]+p.comm[r][w] > p.ws[w] {
				return false
			}
		}
		return true
	}
	conflictFree := func(r, b, exclude int) bool {
		for other, ob := range busOf {
			if ob == b && other != r && other != exclude && p.conflict[r][other] {
				return false
			}
		}
		return true
	}
	apply := func(r, from, to int) {
		d := pairDelta(r, from, -1)
		overlap[from] -= d
		overlap[to] += pairDelta(r, to, -1)
		count[from]--
		count[to]++
		for w := 0; w < nW; w++ {
			load[from][w] -= p.comm[r][w]
			load[to][w] += p.comm[r][w]
		}
		busOf[r] = to
	}

	best := append([]int(nil), busOf...)
	bestObj := objective()
	cur := bestObj

	startTemp := float64(bestObj)/2 + 1
	endTemp := startTemp / annealCoolingRange
	cooling := math.Pow(endTemp/startTemp, 1/float64(moves))
	temp := startTemp
	rng := rand.New(rand.NewSource(annealSeed))

	for it := 0; it < moves; it++ {
		if it%annealPollInterval == 0 && ctx.Err() != nil {
			break
		}
		temp *= cooling
		r := rng.Intn(nT)
		from := busOf[r]
		to := rng.Intn(k)
		if to == from {
			continue
		}
		var undo func()
		if rng.Intn(2) == 0 {
			// Relocate r to bus `to`.
			if count[to] >= p.maxPerBus || !conflictFree(r, to, -1) || !fitsBandwidth(r, to) {
				continue
			}
			apply(r, from, to)
			undo = func() { apply(r, to, from) }
		} else {
			// Swap r with a receiver on bus `to`.
			var candidates []int
			for other, ob := range busOf {
				if ob == to {
					candidates = append(candidates, other)
				}
			}
			if len(candidates) == 0 {
				continue
			}
			s := candidates[rng.Intn(len(candidates))]
			if !conflictFree(r, to, s) || !conflictFree(s, from, r) {
				continue
			}
			// Bandwidth with both displaced.
			ok := true
			for w := 0; w < nW; w++ {
				if load[to][w]-p.comm[s][w]+p.comm[r][w] > p.ws[w] ||
					load[from][w]-p.comm[r][w]+p.comm[s][w] > p.ws[w] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			apply(r, from, to)
			apply(s, to, from)
			undo = func() {
				apply(r, to, from)
				apply(s, from, to)
			}
		}
		next := objective()
		if next <= cur || rng.Float64() < math.Exp(float64(cur-next)/temp) {
			cur = next
			if cur < bestObj {
				bestObj = cur
				copy(best, busOf)
			}
			continue
		}
		undo()
	}
	return best, bestObj
}
