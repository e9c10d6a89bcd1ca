// Package workloads generates the MPSoC benchmark applications the
// paper evaluates (Section 7.1): two matrix-multiplication suites
// (Mat1, Mat2), an FFT suite, a Quick-Sort suite and a DES encryption
// system, plus the 20-core synthetic benchmark used for the window,
// burst and threshold sweeps (Sections 7.2 and 7.4).
//
// Every application follows the paper's platform template (Figure
// 2(a)): N ARM initiator cores, one private memory per core, a shared
// memory for inter-processor communication, a semaphore memory
// guarding it, and an interrupt device — 2N+3 cores total. The paper's
// five applications map to N = 11 (Mat1, 25 cores), 9 (Mat2, 21),
// 13 (FFT, 29), 6 (QSort, 15) and 8 (DES, 19).
//
// The generators are synthetic substitutes for the proprietary MPARM
// benchmark binaries: they reproduce the communication *structure* the
// methodology depends on — barrier-aligned computation phases that make
// the private-memory streams of different cores overlap in time, bursty
// memory accesses with per-core jitter, and rare lock-mediated shared
// memory traffic — with deterministic seeds.
package workloads

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/stbus"
)

// App is a generated benchmark application plus its platform layout.
type App struct {
	Name          string
	NumInitiators int
	NumTargets    int
	// Programs[i] is initiator i's op sequence.
	Programs [][]sim.Op
	// PrivateOf[i] is the private-memory target of initiator i.
	PrivateOf []int
	// SharedTarget, SemTarget and InterruptTarget index the three
	// common targets.
	SharedTarget, SemTarget, InterruptTarget int
	// Horizon is the recommended simulation length in cycles.
	Horizon int64
	// WindowSize is the recommended analysis window (≈ one computation
	// phase, per Section 7.2's guidance of 1–4× the burst scale).
	WindowSize int64
	// Description summarizes the workload for tooling output.
	Description string
}

// NumCores returns the platform core count (initiators + targets).
func (a *App) NumCores() int { return a.NumInitiators + a.NumTargets }

// SemTargets returns the semaphore device list for sim.Config (empty
// for applications without a semaphore, like the synthetic benchmark).
func (a *App) SemTargets() []int {
	if a.SemTarget < 0 {
		return nil
	}
	return []int{a.SemTarget}
}

// SimConfig wires the application onto the given interconnect
// configurations with the platform timing used throughout the
// experiments (2-cycle memories, 1-cycle request beats).
func (a *App) SimConfig(req, resp *stbus.Config) sim.Config {
	return sim.Config{
		NumInitiators: a.NumInitiators,
		NumTargets:    a.NumTargets,
		Programs:      a.Programs,
		Req:           req,
		Resp:          resp,
		MemWait:       2,
		ReqCycles:     1,
		LockRetry:     24,
		SemTargets:    a.SemTargets(),
		Horizon:       a.Horizon,
		CollectTrace:  true,
	}
}

// FullConfig returns the full-crossbar fabric pair for the app (the
// phase-1 trace-collection platform).
func (a *App) FullConfig() (req, resp *stbus.Config) {
	return stbus.Full(a.NumInitiators, a.NumTargets), stbus.Full(a.NumTargets, a.NumInitiators)
}

// SharedConfig returns the shared-bus fabric pair.
func (a *App) SharedConfig() (req, resp *stbus.Config) {
	return stbus.Shared(a.NumInitiators, a.NumTargets), stbus.Shared(a.NumTargets, a.NumInitiators)
}

// profile parameterizes the phase-structured generator.
type profile struct {
	name       string
	numARM     int
	iters      int
	reads      int   // reads per phase (to the private memory)
	readBurst  int64 // words per read
	writes     int   // writes per phase
	writeBurst int64 // words per write
	gap        int64 // mean compute cycles between accesses
	// burstAccesses > 0 groups accesses into contiguous sub-bursts of
	// that many back-to-back accesses, separated by `pause` compute
	// cycles (cache-refill-like traffic); gap is then ignored.
	burstAccesses int
	pause         int64
	idle          int64 // mean idle tail after each phase
	// groups > 1 splits the cores into pipeline stages: stage g delays
	// its active phase by g*groupOffset cycles after the barrier, so
	// same-stage private-memory streams overlap heavily while
	// cross-stage streams overlap only partially — the heterogeneous
	// overlap structure that makes the binding phase matter (the
	// paper's "pipelined" benchmark suites).
	groups      int
	groupOffset int64
	sharedEvery int // a core visits the shared memory every k iterations
	sharedBurst int64
	jitter      int64 // uniform jitter applied to gaps
	stagger     int64 // max initial per-core offset
	description string
}

// criticalSpec marks the private-memory traffic of selected cores as
// real-time streams (Section 7.3).
type criticalSpec map[int]bool

// build generates the application from a profile, deterministically in
// the seed.
func build(p profile, seed int64, critical criticalSpec) *App {
	n := p.numARM
	app := &App{
		Name:            p.name,
		NumInitiators:   n,
		NumTargets:      n + 3,
		Programs:        make([][]sim.Op, n),
		PrivateOf:       make([]int, n),
		SharedTarget:    n,
		SemTarget:       n + 1,
		InterruptTarget: n + 2,
		WindowSize:      phaseEstimate(p),
		Description:     p.description,
	}
	for i := 0; i < n; i++ {
		app.PrivateOf[i] = i
	}
	// Period with margin for barrier waits and lock serialization at
	// the shared memory (which stretch iterations beyond the idle-bus
	// estimate).
	period := phaseEstimate(p) + p.idle + 64
	if p.groups > 1 {
		period += int64(p.groups-1) * p.groupOffset
	}
	overhead := int64(0)
	if p.sharedEvery > 0 {
		perVisit := 2*(4+p.sharedBurst) + 16 // lock+read+write+unlock, serialized
		overhead = int64(p.numARM/p.sharedEvery+1) * perVisit
	}
	app.Horizon = int64(p.iters)*(period+overhead)*11/10 + 2*period

	for i := 0; i < n; i++ {
		// With pipeline groups, cores of the same stage share one RNG
		// seed and hence one access schedule — the paper's observation
		// that cores performing similar computations access their
		// memories at almost the same time. A tiny per-core offset
		// (applied in coreProgram) keeps the alignment imperfect.
		rngSeed := seed*1000003 + int64(i)
		if p.groups > 1 {
			rngSeed = seed*1000003 + int64(i%p.groups)
		}
		rng := rand.New(rand.NewSource(rngSeed))
		app.Programs[i] = coreProgram(p, app, i, rng, critical[i])
	}
	return app
}

// phaseEstimate approximates the active-phase length on an idle full
// crossbar (read latency 3+burst, write latency 4+burst, plus gaps or
// sub-burst pauses).
func phaseEstimate(p profile) int64 {
	if p.burstAccesses > 0 {
		busy := int64(p.reads)*(3+p.readBurst) + int64(p.writes)*(4+p.writeBurst)
		pauses := int64((p.reads+p.writes)/p.burstAccesses) * p.pause
		return busy + pauses
	}
	reads := int64(p.reads) * (3 + p.readBurst + p.gap)
	writes := int64(p.writes) * (4 + p.writeBurst + p.gap)
	return reads + writes
}

// programLen is the number of ops coreProgram emits for core coreID.
func programLen(p profile, coreID int) int {
	n := 0
	if p.stagger > 0 {
		n++
	}
	accesses := p.reads + p.writes
	perIter := 1 + 2*accesses + 1 // barrier, accesses with their gaps, idle tail
	if p.burstAccesses > 0 {
		perIter = 1 + accesses + accesses/p.burstAccesses + 1
	}
	if p.groups > 1 && coreID%p.groups > 0 {
		perIter++ // the stage delay
	}
	n += p.iters * perIter
	for it := 0; p.sharedEvery > 0 && it < p.iters; it++ {
		if (it+coreID)%p.sharedEvery == 0 {
			n += 4 // lock, read, write, unlock
		}
	}
	return n
}

// coreProgram emits one initiator's op sequence into a slice of
// exactly its length.
func coreProgram(p profile, app *App, coreID int, rng *rand.Rand, critical bool) []sim.Op {
	ops := make([]sim.Op, 0, programLen(p, coreID))
	priv := app.PrivateOf[coreID]
	jit := func(base int64) int64 {
		if p.jitter <= 0 {
			return base
		}
		v := base + rng.Int63n(2*p.jitter+1) - p.jitter
		if v < 0 {
			return 0
		}
		return v
	}
	if p.stagger > 0 {
		// Same-stage cores draw the same stagger from the shared RNG;
		// the within-group index adds a couple of cycles of skew.
		skew := int64(0)
		if p.groups > 1 {
			skew = int64(coreID / p.groups * 2)
		}
		ops = append(ops, sim.Compute(rng.Int63n(p.stagger)+skew))
	}
	mkAccess := func(write bool) sim.Op {
		if write {
			op := sim.Write(priv, p.writeBurst)
			op.Critical = critical
			return op
		}
		op := sim.Read(priv, p.readBurst)
		op.Critical = critical
		return op
	}
	group := 0
	if p.groups > 1 {
		group = coreID % p.groups
	}
	for it := 0; it < p.iters; it++ {
		ops = append(ops, sim.Barrier(it, app.InterruptTarget))
		if p.groups > 1 && group > 0 {
			// Wait for this core's pipeline stage.
			ops = append(ops, sim.Compute(int64(group)*p.groupOffset))
		}
		// Interleave reads and writes through the phase in proportion.
		// With burstAccesses set, accesses come back to back in
		// cache-refill-like sub-bursts separated by jittered pauses;
		// otherwise each access is followed by a jittered compute gap.
		// Jitter de-aligns the cores' fine-grained patterns.
		r, w := p.reads, p.writes
		emitted := 0
		for r > 0 || w > 0 {
			doWrite := w > 0 && (r == 0 || rng.Intn(p.reads+p.writes) < p.writes)
			if doWrite {
				w--
			} else {
				r--
			}
			ops = append(ops, mkAccess(doWrite))
			emitted++
			if p.burstAccesses > 0 {
				if emitted%p.burstAccesses == 0 {
					ops = append(ops, sim.Compute(jit(p.pause)))
				}
			} else {
				ops = append(ops, sim.Compute(jit(p.gap)))
			}
		}
		// Periodic lock-mediated shared-memory exchange.
		if p.sharedEvery > 0 && (it+coreID)%p.sharedEvery == 0 {
			ops = append(ops,
				sim.Lock(app.SemTarget),
				sim.Read(app.SharedTarget, p.sharedBurst),
				sim.Write(app.SharedTarget, p.sharedBurst),
				sim.Unlock(app.SemTarget),
			)
		}
		ops = append(ops, sim.Compute(jit(p.idle)))
	}
	return ops
}

// Mat1 is the 25-core matrix-multiplication suite (11 ARM cores).
// Response-side load (~0.31 duty per initiator within a phase) forces
// 4 target→initiator buses; the targets-per-bus cap yields 4
// initiator→target buses for its 14 targets.
func Mat1(seed int64) *App {
	return build(mat1Profile(), seed, nil)
}

func mat1Profile() profile {
	return profile{
		name: "Mat1", numARM: 11, iters: 36,
		reads: 19, readBurst: 16, writes: 8, writeBurst: 4,
		burstAccesses: 9, pause: 122,
		idle: 1200, groups: 3, groupOffset: 790,
		sharedEvery: 4, sharedBurst: 8,
		jitter: 3, stagger: 160,
		description: "matrix multiplication suite 1 (25 cores)",
	}
}

// Mat2 is the 21-core matrix-multiplication suite of the paper's
// running example (9 ARM cores, Figure 2): moderate phase loads let
// three private memories and one common target share each of 3 buses.
func Mat2(seed int64) *App {
	return build(mat2Profile(), seed, nil)
}

func mat2Profile() profile {
	return profile{
		name: "Mat2", numARM: 9, iters: 40,
		reads: 12, readBurst: 16, writes: 12, writeBurst: 4,
		burstAccesses: 6, pause: 117,
		idle: 1200, groups: 3, groupOffset: 300,
		sharedEvery: 3, sharedBurst: 8,
		jitter: 4, stagger: 160,
		description: "matrix multiplication suite 2 (21 cores)",
	}
}

// Mat2Critical is Mat2 with the private-memory streams of the given
// cores marked as real-time (critical) traffic, used by the Section
// 7.3 real-time experiment.
func Mat2Critical(seed int64, criticalCores ...int) *App {
	spec := criticalSpec{}
	for _, c := range criticalCores {
		spec[c] = true
	}
	p := mat2Profile()
	p.name = "Mat2-RT"
	p.description = "Mat2 with real-time streams on selected cores"
	return build(p, seed, spec)
}

// FFT is the 29-core FFT suite (13 ARM cores). Streaming butterfly
// stages read and write equally with almost no compute gaps, driving
// ~0.4 duty on both directions so only two hot cores can share a bus.
func FFT(seed int64) *App {
	return build(fftProfile(), seed, nil)
}

func fftProfile() profile {
	return profile{
		name: "FFT", numARM: 13, iters: 42,
		reads: 18, readBurst: 8, writes: 18, writeBurst: 8,
		gap: 1, idle: 700, sharedEvery: 4, sharedBurst: 12,
		jitter: 2, stagger: 120,
		description: "FFT suite (29 cores)",
	}
}

// QSort is the 15-core Quick-Sort suite (6 ARM cores): read-dominated
// partitioning sweeps at ~0.4 response duty.
func QSort(seed int64) *App {
	return build(qsortProfile(), seed, nil)
}

func qsortProfile() profile {
	return profile{
		name: "QSort", numARM: 6, iters: 40,
		reads: 25, readBurst: 16, writes: 6, writeBurst: 4,
		burstAccesses: 10, pause: 126,
		idle: 1300, groups: 2, groupOffset: 900,
		sharedEvery: 3, sharedBurst: 8,
		jitter: 3, stagger: 140,
		description: "quick sort suite (15 cores)",
	}
}

// DES is the 19-core DES encryption system (8 ARM cores): block
// streaming reads with small key/state writes, ~0.3 response duty.
func DES(seed int64) *App {
	return build(desProfile(), seed, nil)
}

func desProfile() profile {
	return profile{
		name: "DES", numARM: 8, iters: 44,
		reads: 48, readBurst: 5, writes: 8, writeBurst: 2,
		burstAccesses: 8, pause: 55,
		idle:        1100,
		sharedEvery: 4, sharedBurst: 6,
		jitter: 3, stagger: 140,
		description: "DES encryption system (19 cores)",
	}
}

// All returns the five paper benchmarks in Table 2 order.
func All(seed int64) []*App {
	return []*App{Mat1(seed), Mat2(seed), FFT(seed), QSort(seed), DES(seed)}
}

// Synthetic builds the 20-core synthetic benchmark of Sections 7.2 and
// 7.4: 10 initiators stream DMA-like write bursts to their own targets
// at ~20–25% duty. Burst lengths are heterogeneous across cores
// (0.3–1.2× the nominal burstLen, "typical" bursts near burstLen as in
// Section 7.2) and the cores' periods differ slightly, so the bursts
// drift relative to each other over the run: every target pair
// eventually overlaps somewhere, with per-pair overlap magnitudes
// spread over a wide range — exactly the traffic whose windowed
// analysis the window-size (Fig. 5) and threshold (Fig. 6) sweeps
// probe. There are no common targets and no barriers.
func Synthetic(seed int64, burstLen int64) *App {
	if burstLen <= 0 {
		panic(fmt.Sprintf("workloads: burst length must be positive, got %d", burstLen))
	}
	const nCores = 10
	const iters = 48
	basePeriod := 4 * burstLen
	app := &App{
		Name:            "Synth",
		NumInitiators:   nCores,
		NumTargets:      nCores,
		PrivateOf:       make([]int, nCores),
		Programs:        make([][]sim.Op, nCores),
		SharedTarget:    -1,
		SemTarget:       -1,
		InterruptTarget: -1,
		Horizon:         int64(iters+3) * (basePeriod + nCores*burstLen/10),
		WindowSize:      2 * burstLen,
		Description:     fmt.Sprintf("synthetic 20-core streaming benchmark (burst %d cycles)", burstLen),
	}
	for i := 0; i < nCores; i++ {
		rng := rand.New(rand.NewSource(seed*999983 + int64(i)))
		app.PrivateOf[i] = i
		// Core i streams bursts of 0.3–1.2× burstLen with a period of
		// 4–5× burstLen; the per-core period offset makes relative
		// burst positions sweep through all alignments over the run.
		burst := burstLen * int64(3+i) / 10
		period := basePeriod + int64(i)*burstLen/10
		gap := period - burst - 5
		prog := make([]sim.Op, 1, 1+2*iters)
		prog[0] = sim.Compute(rng.Int63n(basePeriod))
		for it := 0; it < iters; it++ {
			// One long streaming write: occupies the initiator→target
			// bus for 1+burst cycles contiguously.
			prog = append(prog,
				sim.Write(i, burst),
				sim.Compute(gap-16+rng.Int63n(32)),
			)
		}
		app.Programs[i] = prog
	}
	return app
}

// builtinProfiles indexes the benchmark profiles by name, for SpecOf.
func builtinProfiles() map[string]profile {
	return map[string]profile{
		"Mat1":  mat1Profile(),
		"Mat2":  mat2Profile(),
		"FFT":   fftProfile(),
		"QSort": qsortProfile(),
		"DES":   desProfile(),
	}
}
