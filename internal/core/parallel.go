package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/conc"
	"repro/internal/obs"
)

// This file parallelizes the branch and bound of assign.go: the DFS is
// split at a frontier depth into independent subtrees, explored on
// worker goroutines that pull subtree indices from a shared counter
// (idle workers steal whatever subtree is next, so uneven subtrees
// balance automatically). The design goal — enforced by the golden
// pins and the parallel determinism tests — is that the result is
// BIT-IDENTICAL to the sequential solve at any worker count. The
// protocol that makes that hold:
//
//   - The frontier is enumerated once, serially, in exact DFS order; a
//     subtree's index is its rank in that order.
//   - In optimize mode each subtree is searched with its own local
//     incumbent starting at the sequential initial bound B0 (the greedy
//     objective, tightened by an external seed to seedObj+1), plus a
//     shared bound holding the best objective of a binding some worker
//     (or the portfolio's annealing feeder) has actually realized.
//     Local pruning is `newOv >= local`, exactly as sequential; shared
//     pruning is strictly `newOv > shared`. The shared bound only ever
//     holds objectives of real bindings, so it is always >= the true
//     optimum opt; hence no prefix of the sequential answer — the first
//     DFS-order optimal leaf, all of whose prefix overlaps are <= opt —
//     is ever pruned by it. Within that leaf's subtree the local
//     incumbent cannot reach opt before the leaf (that would take an
//     earlier optimal leaf in the same subtree, contradicting
//     firstness), so that subtree always records exactly the sequential
//     binding. No subtree with a lower index contains any optimal leaf
//     (sequentially they were exhausted or bound-pruned strictly above
//     opt), so the reduction — minimum objective, lowest subtree index
//     winning ties — returns the sequential binding regardless of
//     scheduling or of when shared bounds arrive.
//   - In feasibility mode there is no objective pruning, so subtree
//     searches are fully independent: each halts at its first DFS-order
//     witness and the reduction keeps the lowest-index witness, which
//     is by construction the subtree of the sequential first-found
//     leaf. Workers abandon subtrees outranked by an already-published
//     witness — they cannot win the reduction — the parallel analogue
//     of the sequential early return.
//
// The only nondeterminism left is budget exhaustion and cancellation: a
// capped parallel solve is best-effort, exactly like a capped
// sequential solve (whose incumbent also depends on where the budget
// landed), and is surfaced through assignResult.capped.

// parShared is the state shared by every worker of one parallel solve —
// and, in the portfolio, by the sibling engines feeding it. bound is
// the best objective of a KNOWN-VALID binding; it only ever decreases.
// nodes is the global expanded-node count charged against the problem
// budget. bestFeas is the lowest frontier-subtree index holding a
// feasibility witness (unset = 1<<62).
type parShared struct {
	bound    atomic.Int64
	nodes    atomic.Int64
	bestFeas atomic.Int64
}

func newParShared() *parShared {
	s := &parShared{}
	s.bound.Store(int64(1) << 62)
	s.bestFeas.Store(int64(1) << 62)
	return s
}

// offerBound publishes the objective of a valid binding; the shared
// bound keeps the minimum ever offered (lock-free CAS descent).
func (s *parShared) offerBound(obj int64) {
	for {
		cur := s.bound.Load()
		if obj >= cur {
			return
		}
		if s.bound.CompareAndSwap(cur, obj) {
			return
		}
	}
}

// offerFeas publishes a feasibility witness in subtree idx, keeping the
// lowest index ever offered.
func (s *parShared) offerFeas(idx int) {
	for {
		cur := s.bestFeas.Load()
		if int64(idx) >= cur {
			return
		}
		if s.bestFeas.CompareAndSwap(cur, int64(idx)) {
			return
		}
	}
}

// frontierTarget is how many subtrees solveParallel aims to cut the
// tree into per worker: enough granularity that uneven subtrees
// balance across the pool, few enough that per-subtree replay cost
// stays invisible next to the search itself.
const frontierTarget = 16

// maxFrontier caps the frontier size outright, bounding the serial
// enumeration and the per-subtree bookkeeping.
const maxFrontier = 4096

// place puts target t on bus b (the caller has validated the move) and
// returns the overlap it added plus whether it opened a new bus, for
// the matching unwind. Mirrors the placement block of dfs exactly.
func (st *searchState) place(t, b int) (added int64, newBus bool) {
	p := st.p
	if st.optimize {
		for other, ob := range st.busOf {
			if ob == b {
				added += p.om.At(t, other)
			}
		}
	}
	newBus = b == st.used
	if newBus {
		st.used++
	}
	st.busOf[t] = b
	st.count[b]++
	st.overlap[b] += added
	for w := 0; w < len(p.ws); w++ {
		st.load[b][w] += p.comm[t][w]
		st.total[w] += p.comm[t][w]
	}
	return added, newBus
}

// reset returns the state to the clean root configuration with the
// incumbent bound installed, keeping the shared suffix table and the
// cumulative node counters.
func (st *searchState) reset(bound int64) {
	for t := range st.busOf {
		st.busOf[t] = -1
	}
	for b := range st.load {
		for w := range st.load[b] {
			st.load[b][w] = 0
		}
		st.count[b] = 0
		st.overlap[b] = 0
	}
	for w := range st.total {
		st.total[w] = 0
	}
	st.used = 0
	st.capped = false
	st.aborted = false
	st.best = bound
	st.bestBus = nil
}

// replay applies a frontier prefix (bus choices for p.order[0:depth])
// to a clean state and returns the running binding objective — the
// curMax the sequential dfs would carry at that node.
func (st *searchState) replay(prefix []int) int64 {
	var curMax int64
	for i, b := range prefix {
		st.place(st.p.order[i], b)
		if st.overlap[b] > curMax {
			curMax = st.overlap[b]
		}
	}
	return curMax
}

// expandFrontier enumerates the surviving search-tree prefixes at an
// adaptive depth, in exact DFS order, growing the frontier level by
// level until it holds at least `want` subtrees (or the tree settles
// first). st must be a fresh state carrying the optimize-mode initial
// bound in st.best: expansion applies the same hard-constraint checks
// as dfs plus the static initial bound, so the enumerated prefixes are
// a superset of the prefixes the sequential search visits (sequential
// pruning only ever uses bounds <= the initial one), in the same order.
func (p *assignProblem) expandFrontier(st *searchState, want int) (depth int, level [][]int, nodes int64) {
	bound := st.best
	if want > maxFrontier {
		want = maxFrontier
	}
	level = [][]int{{}}
	nW := len(p.ws)
	for depth < p.nT-1 && len(level) > 0 && len(level) < want {
		next := make([][]int, 0, 2*len(level))
		for _, prefix := range level {
			nodes++
			st.reset(bound)
			st.replay(prefix)
			// Global capacity prune, as at every dfs node entry.
			ok := true
			for w := 0; w < nW; w++ {
				if st.suffix[depth][w] > int64(st.nB)*p.ws[w]-st.total[w] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			t := p.order[depth]
			limit := st.used
			if limit >= st.nB {
				limit = st.nB - 1
			}
			for b := 0; b <= limit; b++ {
				if st.count[b] >= p.maxPerBus {
					continue
				}
				okB := true
				for other, ob := range st.busOf {
					if ob == b && p.conflict[t][other] {
						okB = false
						break
					}
				}
				if !okB {
					continue
				}
				for w := 0; w < nW; w++ {
					if st.load[b][w]+p.comm[t][w] > p.ws[w] {
						okB = false
						break
					}
				}
				if !okB {
					continue
				}
				if st.optimize {
					var added int64
					for other, ob := range st.busOf {
						if ob == b {
							added += p.om.At(t, other)
						}
					}
					if st.overlap[b]+added >= bound {
						continue
					}
				}
				child := make([]int, depth+1)
				copy(child, prefix)
				child[depth] = b
				next = append(next, child)
			}
		}
		level = next
		depth++
	}
	return depth, level, nodes
}

// solveAuto dispatches between the sequential and parallel solvers on
// the resolved worker count. workers <= 1 takes the sequential path —
// the bit-identity reference — and ignores feed; >= 2 splits the tree.
func (p *assignProblem) solveAuto(ctx context.Context, nB int, optimize bool, workers int, seedBus []int, seedObj int64, feed *parShared) (*assignResult, error) {
	if workers <= 1 || p.nT < 2 {
		return p.solveSeeded(ctx, nB, optimize, seedBus, seedObj)
	}
	return p.solveParallel(ctx, nB, optimize, workers, seedBus, seedObj, feed)
}

// solveParallel is solveSeeded across `workers` goroutines (callers go
// through solveAuto, which routes workers <= 1 to the sequential path).
// feed, when non-nil, is an externally created shared incumbent — the
// portfolio's annealing feeder publishes valid-binding objectives into
// it while the search runs; nil creates a private one. Results are
// bit-identical to solveSeeded whenever the node budget is not
// exhausted (see the file comment for the argument).
func (p *assignProblem) solveParallel(ctx context.Context, nB int, optimize bool, workers int, seedBus []int, seedObj int64, feed *parShared) (*assignResult, error) {
	if nB <= 0 {
		return &assignResult{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(ctx)
	}
	shared := feed
	if shared == nil {
		shared = newParShared()
	}

	// Initial incumbent: exactly the sequential one — greedy, tightened
	// by an external seed with the bit-identity-preserving +1 (the
	// shared bound gets the un-bumped seed objective: the seed binding
	// is real, so its objective is a valid shared bound, and the strict
	// shared comparison keeps ties explorable).
	bound := int64(1) << 62
	var boundBus []int
	if optimize {
		if busOf, obj, ok := p.greedyBinding(nB); ok {
			bound = obj
			boundBus = busOf
			shared.offerBound(obj)
			obs.FlightRecorderFrom(ctx).Emit(obs.Event{Kind: obs.EvIncumbent, K: nB, Val: obj, Who: "greedy"})
		}
		if seedBus != nil && seedObj+1 < bound {
			bound = seedObj + 1
			boundBus = append([]int(nil), seedBus...)
			shared.offerBound(seedObj)
		}
	}

	// Serial frontier enumeration in DFS prefix order.
	enumSt := p.newSearchState(ctx, nB, optimize, nil)
	enumSt.best = bound
	suffix := enumSt.suffix
	depth, frontier, enumNodes := p.expandFrontier(enumSt, workers*frontierTarget)
	metNodes.Add(enumNodes)
	shared.nodes.Add(enumNodes)
	if err := ctx.Err(); err != nil {
		return nil, canceledErr(ctx)
	}
	res := &assignResult{}
	if len(frontier) == 0 {
		// The whole tree settled within the frontier depth: infeasible,
		// or (optimize) nothing can beat the initial incumbent.
		res.nodes = shared.nodes.Load()
		if optimize && boundBus != nil {
			res.feasible = true
			res.busOf = boundBus
			res.maxOverlap = bound
		}
		return res, nil
	}

	type subtreeResult struct {
		obj   int64
		busOf []int
	}
	results := make([]subtreeResult, len(frontier))
	var capped atomic.Bool
	var stopMu sync.Mutex
	var stopErr error
	var next atomic.Int64

	nWorkers := workers
	if nWorkers > len(frontier) {
		nWorkers = len(frontier)
	}
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Under conc.Protect a panic in a worker is the solve's
			// error, not a process crash.
			err := conc.Protect(func() error {
				st := p.newSearchState(ctx, nB, optimize, suffix)
				st.par = shared
				for {
					i := int(next.Add(1)) - 1
					if i >= len(frontier) {
						break
					}
					if !optimize && shared.bestFeas.Load() < int64(i) {
						continue // cannot outrank the witness already found
					}
					st.reset(bound)
					st.subtree = i
					curMax := st.replay(frontier[i])
					if st.dfs(depth, curMax) {
						results[i] = subtreeResult{busOf: append([]int(nil), st.busOf...)}
						shared.offerFeas(i)
					} else if optimize && st.bestBus != nil {
						results[i] = subtreeResult{obj: st.best, busOf: st.bestBus}
					}
					if st.stopErr != nil {
						break
					}
					if st.capped {
						capped.Store(true)
						if shared.nodes.Load() > p.maxNodes {
							break // global budget gone; later subtrees would cap instantly
						}
					}
				}
				metNodes.Add(st.nodes - st.flushed)
				shared.nodes.Add(st.nodes - st.flushed)
				st.flushed = st.nodes
				return st.stopErr
			})
			if err != nil {
				stopMu.Lock()
				if stopErr == nil {
					stopErr = err
				}
				stopMu.Unlock()
			}
		}()
	}
	wg.Wait()

	if stopErr != nil {
		return nil, stopErr
	}
	res.nodes = shared.nodes.Load()
	res.capped = capped.Load()
	if !optimize {
		if bf := shared.bestFeas.Load(); bf < int64(1)<<62 {
			res.feasible = true
			res.busOf = results[bf].busOf
			res.maxOverlap = MaxOverlapOfMatrix(p.om, nB, res.busOf)
			res.capped = false // a witness in hand, as in the sequential early return
			return res, nil
		}
		if res.capped {
			return nil, ErrSearchLimit // exhausted the budget without settling feasibility
		}
		return res, nil // proven infeasible
	}
	// Optimize reduction: minimum objective, lowest subtree index wins
	// ties (ascending scan with a strict improvement test).
	best, bestBus := bound, boundBus
	for i := range results {
		if results[i].busOf != nil && results[i].obj < best {
			best, bestBus = results[i].obj, results[i].busOf
		}
	}
	if bestBus == nil {
		if res.capped {
			return nil, ErrSearchLimit
		}
		return res, nil // infeasible
	}
	res.feasible = true
	res.busOf = bestBus
	res.maxOverlap = best
	return res, nil
}
