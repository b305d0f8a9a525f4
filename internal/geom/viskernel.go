package geom

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the visibility kernel: warm arenas for the
// stateless one-row VisibleRow, the per-move ClearAround check, and the
// float Complete Visibility check (fanned out across a worker pool on a
// multi-worker kernel, serial on a 1-worker one). VisibleRow
// serves every Look the engine, its compute workers and the concurrent
// runtime take; it funnels through rowArena.visibleRow, so its rows are
// identical — not just equivalent — to VisibleSetFast.

// kernelMinParallel is the swarm size below which the CV check runs on
// the caller's goroutine: fan-out overhead beats the work itself for
// small n, and small runs never spawn the pool at all.
const kernelMinParallel = 128

// kernelArena is one worker's private scan scratch.
type kernelArena struct {
	dirs []dir

	// cvEmit is the persistent collinearObserver callback for CV scans,
	// built once per arena so the steady state allocates nothing; it
	// reads the observer and points through cvObs/cvPts.
	cvEmit func(x, y int, confirmable bool) bool
	cvObs  int
	cvPts  []Point
	// clearEmit is ClearAround's persistent callback, reading the same
	// cvObs and cvPts.
	clearEmit func(x, y int, confirmable bool) bool
}

// Kernel owns the worker pool and arenas for visibility computation.
// The pool serves only the Complete Visibility fan-out: workers are
// spawned lazily on the first CV check large enough to parallelize and
// live until Close; dispatch is a channel handshake with no per-check
// allocation. A Kernel's methods must not be called concurrently with
// each other — it serves one engine loop — but distinct Kernels are
// fully independent.
type Kernel struct {
	workers int
	row     rowArena
	arenas  []kernelArena
	jobs    []chan []Point
	wg      sync.WaitGroup
	started bool
	closed  bool
	cvFound atomic.Bool
}

// NewKernel returns a kernel with the given number of workers;
// workers <= 0 selects runtime.NumCPU(). Close must be called to release
// the pool (a never-parallelized kernel holds no resources, and Close is
// still safe).
func NewKernel(workers int) *Kernel {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Kernel{
		workers: workers,
		arenas:  make([]kernelArena, workers),
	}
}

// Workers reports the pool size.
func (k *Kernel) Workers() int { return k.workers }

// Close stops the worker pool. The kernel must not be used afterwards.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	if k.started {
		for _, c := range k.jobs {
			close(c)
		}
	}
}

// start spawns the workers on first parallel use.
func (k *Kernel) start() {
	if k.started {
		return
	}
	k.started = true
	k.jobs = make([]chan []Point, k.workers)
	for w := range k.jobs {
		// Buffered by one so dispatch never blocks: the dispatcher joins
		// every batch before issuing the next, so at most one job is ever
		// in flight per worker.
		k.jobs[w] = make(chan []Point, 1)
		go k.worker(w)
	}
}

// dispatch hands the CV scan of pts to every worker and waits for the
// batch.
func (k *Kernel) dispatch(pts []Point) {
	k.start()
	k.wg.Add(k.workers)
	for w := range k.jobs {
		k.jobs[w] <- pts
	}
	k.wg.Wait()
}

func (k *Kernel) worker(w int) {
	for pts := range k.jobs[w] {
		k.cvScan(&k.arenas[w], pts, w, k.workers)
		k.wg.Done()
	}
}

// cvScan runs one stride of the Complete Visibility scan over observers
// start, start+step, …: duplicate detection for pairs anchored at the
// strided index plus the folded-direction collinear scan with that index
// as observer, with a shared early-exit flag once any refutation is
// found. Workers call it with their stride; the serial path calls it
// once with stride 1.
func (k *Kernel) cvScan(a *kernelArena, pts []Point, start, step int) {
	if a.cvEmit == nil {
		a.cvEmit = func(x, y int, confirmable bool) bool {
			if k.cvFound.Load() {
				return true
			}
			if !confirmable || AreCollinear(a.cvPts[a.cvObs], a.cvPts[x], a.cvPts[y]) {
				k.cvFound.Store(true)
				return true
			}
			return false
		}
	}
	a.cvPts = pts
	defer func() { a.cvPts = nil }()
	n := len(pts)
	for i := start; i < n; i += step {
		if k.cvFound.Load() {
			return
		}
		for j := i + 1; j < n; j++ {
			if pts[i].Eq(pts[j]) {
				k.cvFound.Store(true)
				return
			}
		}
		a.cvObs = i
		var stop bool
		a.dirs, stop = collinearObserver(pts, i, 0, a.dirs, a.cvEmit)
		if stop {
			return
		}
	}
}

// CompleteVisibilityFast reports whether all points are distinct and
// pairwise mutually visible, in O(n² log n): distinctness plus the
// absence of any collinear triple confirmed by AreCollinear (any such
// triple has a blocked pair, and CV requires none). It agrees with
// CompleteVisibility up to float tolerance; the engine's terminal
// verification re-decides with exact arithmetic. The verdict does not
// depend on the worker count. Small inputs, and every input on a
// 1-worker kernel, run serially on the caller's goroutine (still
// allocation-free once warm).
func (k *Kernel) CompleteVisibilityFast(pts []Point) bool {
	k.cvFound.Store(false)
	if len(pts) < kernelMinParallel || k.workers <= 1 {
		k.cvScan(&k.arenas[0], pts, 0, 1)
		return !k.cvFound.Load()
	}
	k.dispatch(pts)
	return !k.cvFound.Load()
}

// VisibleRow returns the visible set of pts[r], VisibleSetFast(pts, r)
// byte for byte, built in dst's storage (truncated and appended to). It
// keeps no state between calls: a caller that wants to reuse a row
// across Looks keeps the buffer and decides itself when the row is
// stale. A warm call allocates nothing once dst has room. It runs on
// the caller's goroutine.
func (k *Kernel) VisibleRow(dst []int, pts []Point, r int) []int {
	return k.row.visibleRow(pts, r, dst)
}

// ClearAround reports whether point m takes part in no collinear triple
// under any anchor, so that moving m alone cannot have broken Complete
// Visibility. It holds when no other point Eq-coincides with pts[m] and
// every pair (a, b) that m's folded-direction scan emits fails
// AreCollinear under all three anchors: (m, a, b), (a, m, b) and
// (b, m, a). Orient's float answer depends on the anchor, and a
// visibility row from observer r tests a triple with r as the anchor,
// so confirming from m alone is not enough. A pair the scan does not
// emit is farther apart in direction from m than the acceptance angle
// of any of the three anchors (DESIGN.md, "Known complete
// visibility"); when m's fold tolerance is undefined the scan emits
// every pair, and every triple through m is confirmed directly. It runs
// on the caller's goroutine in O(n log n), O(n²) for that degenerate
// case, and allocates nothing once warm.
func (k *Kernel) ClearAround(pts []Point, m int) bool {
	for j, p := range pts {
		if j != m && p.Eq(pts[m]) {
			return false
		}
	}
	a := &k.arenas[0]
	if a.clearEmit == nil {
		a.clearEmit = func(x, y int, confirmable bool) bool {
			o, p, q := a.cvPts[a.cvObs], a.cvPts[x], a.cvPts[y]
			return !confirmable || AreCollinear(o, p, q) || AreCollinear(p, o, q) || AreCollinear(q, o, p)
		}
	}
	a.cvPts, a.cvObs = pts, m
	var stop bool
	a.dirs, stop = collinearObserver(pts, m, 0, a.dirs, a.clearEmit)
	a.cvPts = nil
	return !stop
}
