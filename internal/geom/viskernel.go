package geom

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the batched visibility kernel: a worker pool with
// per-worker arenas that computes all n visible sets of a configuration
// in one parallel pass, an incrementally-maintained Snapshot that reuses
// rows across single-robot moves (the common ASYNC case), and the float
// Complete Visibility check (fanned out across workers on a multi-worker
// kernel, serial on a 1-worker one). Snapshot.Row serves the inline
// Looks of the engine and the concurrent runtime, Kernel.VisibleRow the
// engine's pipelined ones. All row computation funnels through
// rowArena.visibleRow, so kernel results are identical — not just
// equivalent — to VisibleSetFast.

const (
	// kernelMinParallel is the swarm size below which batch operations
	// run on the caller's goroutine: fan-out overhead beats the work
	// itself for small n, and small runs never spawn the pool at all.
	kernelMinParallel = 128
	// pendingCap bounds the Snapshot move log. When it overflows, the
	// snapshot raises a barrier and every stale row recomputes fully.
	pendingCap = 16
	// reuseScanMax bounds how many logged moves a lazy row revalidation
	// will scan before giving up and recomputing: past that the O(moves·n)
	// isolation scan costs as much as the O(n log n) recompute.
	reuseScanMax = 8
)

// kernelArena is one worker's private scratch plus its stat cells for the
// current batch (summed into the snapshot after the join, so workers
// never write shared memory).
type kernelArena struct {
	row          rowArena
	dirs         []dir
	rowsComputed int64
	rowsReused   int64

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

// kernelJob is one batch dispatched to every worker: a snapshot row fill
// when snap is set, a Complete Visibility scan over pts otherwise.
type kernelJob struct {
	snap *Snapshot
	pts  []Point
}

// Kernel owns the worker pool and arenas for batched visibility
// computation. Workers are spawned lazily on the first batch large
// enough to parallelize and live until Close; dispatch is a channel
// handshake with no per-batch allocation. A Kernel's methods must not be
// called concurrently with each other — it serves one engine loop — but
// distinct Kernels are fully independent.
type Kernel struct {
	workers int
	arenas  []kernelArena
	jobs    []chan kernelJob
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
	k.jobs = make([]chan kernelJob, k.workers)
	for w := range k.jobs {
		// Buffered by one so dispatch never blocks: the dispatcher joins
		// every batch before issuing the next, so at most one job is ever
		// in flight per worker.
		k.jobs[w] = make(chan kernelJob, 1)
		go k.worker(w)
	}
}

// dispatch hands one job to every worker and waits for the batch.
func (k *Kernel) dispatch(job kernelJob) {
	k.start()
	k.wg.Add(k.workers)
	for w := range k.jobs {
		k.jobs[w] <- job
	}
	k.wg.Wait()
}

func (k *Kernel) worker(w int) {
	for job := range k.jobs[w] {
		if job.snap != nil {
			k.fillRows(w, job.snap)
		} else {
			k.cvScan(&k.arenas[w], job.pts, w, k.workers)
		}
		k.wg.Done()
	}
}

// fillRows brings worker w's stride of snapshot rows up to date.
func (k *Kernel) fillRows(w int, s *Snapshot) {
	a := &k.arenas[w]
	for r := w; r < len(s.pts); r += k.workers {
		if s.rowVer[r] == s.version {
			continue
		}
		if s.fillRow(r, a) {
			a.rowsComputed++
		} else {
			a.rowsReused++
		}
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
	k.dispatch(kernelJob{pts: pts})
	return !k.cvFound.Load()
}

// VisibleRow returns the visible set of pts[r], VisibleSetFast(pts, r)
// byte for byte, built in dst's storage (truncated and appended to). It
// serves a caller that needs one row of a configuration it will not see
// again: a Snapshot keeps a buffer per robot and copies the positions
// in, VisibleRow neither. A warm call allocates nothing once dst has
// room. It runs on the caller's goroutine, in the kernel's first arena.
func (k *Kernel) VisibleRow(dst []int, pts []Point, r int) []int {
	return k.arenas[0].row.visibleRow(pts, r, dst)
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

// pendingMove is one logged position change since the snapshot barrier.
type pendingMove struct {
	robot int
	ver   int64 // snapshot version immediately after this move
	old   Point
}

// SnapshotStats counts how rows were produced since Reset.
type SnapshotStats struct {
	// RowsComputed counts full O(n log n) row computations.
	RowsComputed int64
	// RowsReused counts rows revalidated by the incremental isolation
	// check instead of recomputed.
	RowsReused int64
}

// Snapshot is an incrementally-maintained view of all n visibility rows
// of a configuration. Positions change through Update, rows are read
// through Row (lazily brought up to date) or ComputeAll (batched across
// the kernel's workers). Rows are always exactly what VisibleSetFast
// would return for the current positions — the incremental path only
// skips recomputation when it can prove the answer is unchanged.
//
// A Snapshot is single-owner: its methods must not be called
// concurrently (ComputeAll parallelizes internally and returns only
// after the batch joins). Row results are valid until the owning row is
// next recomputed and must not be mutated.
type Snapshot struct {
	k       *Kernel
	pts     []Point
	rows    [][]int
	rowVer  []int64 // version at which rows[r] was last valid
	version int64   // increments on every Reset/Update
	barrier int64   // rows older than this must recompute fully
	pending []pendingMove

	rowsComputed int64
	rowsReused   int64
}

// NewSnapshot returns an empty snapshot bound to the kernel; call Reset
// to load a configuration.
func (k *Kernel) NewSnapshot() *Snapshot {
	return &Snapshot{k: k}
}

// Reset loads a configuration, invalidating every row. The snapshot
// keeps its buffers, so resetting to same-size configurations does not
// allocate once warm.
func (s *Snapshot) Reset(pts []Point) {
	s.pts = append(s.pts[:0], pts...)
	n := len(pts)
	for len(s.rows) < n {
		s.rows = append(s.rows, nil)
	}
	s.rows = s.rows[:n]
	for len(s.rowVer) < n {
		s.rowVer = append(s.rowVer, 0)
	}
	s.rowVer = s.rowVer[:n]
	for i := range s.rowVer {
		s.rowVer[i] = 0 // version is always ≥ 1: marks the row stale
	}
	s.version++
	s.barrier = s.version
	s.pending = s.pending[:0]
}

// Len returns the number of points in the snapshot.
func (s *Snapshot) Len() int { return len(s.pts) }

// At returns the current position of point m.
func (s *Snapshot) At(m int) Point { return s.pts[m] }

// Update moves point m to p, logging the old position so unaffected rows
// can be revalidated instead of recomputed. When the log overflows the
// snapshot raises a barrier: every row computed before it recomputes
// fully on next access.
func (s *Snapshot) Update(m int, p Point) {
	if len(s.pending) >= pendingCap {
		s.version++
		s.barrier = s.version
		s.pending = s.pending[:0]
		s.pts[m] = p
		return
	}
	s.version++
	s.pending = append(s.pending, pendingMove{robot: m, ver: s.version, old: s.pts[m]})
	s.pts[m] = p
}

// Row returns the visible set of point r for the current positions,
// bringing the row up to date if needed. The result is
// VisibleSetFast(current positions, r), byte for byte.
func (s *Snapshot) Row(r int) []int {
	if s.rowVer[r] != s.version {
		if s.fillRow(r, &s.k.arenas[0]) {
			s.rowsComputed++
		} else {
			s.rowsReused++
		}
	}
	return s.rows[r]
}

// ComputeAll brings every row up to date in one batch, fanned out across
// the kernel's workers for large n. Afterwards Row(r) is O(1) for all r
// until the next Update.
func (s *Snapshot) ComputeAll() {
	n := len(s.pts)
	if n < kernelMinParallel || s.k.workers <= 1 {
		for r := 0; r < n; r++ {
			s.Row(r)
		}
		return
	}
	s.k.dispatch(kernelJob{snap: s})
	for w := range s.k.arenas {
		a := &s.k.arenas[w]
		s.rowsComputed += a.rowsComputed
		s.rowsReused += a.rowsReused
		a.rowsComputed = 0
		a.rowsReused = 0
	}
}

// Stats reports the row accounting since Reset.
func (s *Snapshot) Stats() SnapshotStats {
	return SnapshotStats{RowsComputed: s.rowsComputed, RowsReused: s.rowsReused}
}

// fillRow brings row r up to date using arena a and reports whether a
// full recompute was needed. Workers call it on disjoint rows: it reads
// shared snapshot state (positions, move log) and writes only row r.
func (s *Snapshot) fillRow(r int, a *kernelArena) (computed bool) {
	if s.rowVer[r] >= s.barrier && s.rowUnaffected(r) {
		s.rowVer[r] = s.version
		return false
	}
	s.rows[r] = a.row.visibleRow(s.pts, r, s.rows[r])
	s.rowVer[r] = s.version
	return true
}

// rowUnaffected reports whether row r provably survived every move
// logged since it was computed. The rule: a move of robot m cannot
// change row r if both the old and the new position of m are angularly
// isolated, as seen from r, from every position any other robot held in
// the window — then m forms a singleton direction bucket before and
// after, every other ray keeps its bucket, and all verdicts (which are
// confirmed by the tolerance-independent StrictlyBetween predicate)
// stand. The isolation tolerance is foldTol over the union of current
// positions and logged old positions, which dominates the tolerance any
// recompute in the window would have used (foldTol is monotone in
// shrinking minimum distance and growing extent), so the proof covers
// every intermediate configuration.
func (s *Snapshot) rowUnaffected(r int) bool {
	lo := len(s.pending)
	for lo > 0 && s.pending[lo-1].ver > s.rowVer[r] {
		lo--
	}
	win := s.pending[lo:]
	if len(win) == 0 {
		return true
	}
	if len(win) > reuseScanMax {
		return false
	}
	for _, pm := range win {
		if pm.robot == r {
			return false
		}
	}
	// Union ray statistics from observer r: current positions plus the
	// windowed old positions.
	self := s.pts[r]
	minD2 := math.Inf(1)
	maxL1 := 0.0
	acc := func(p Point) bool {
		d := p.Sub(self)
		d2 := d.Norm2()
		if d2 == 0 {
			return false // coincident with the observer: recompute
		}
		if d2 < minD2 {
			minD2 = d2
		}
		if l1 := abs(d.X) + abs(d.Y); l1 > maxL1 {
			maxL1 = l1
		}
		return true
	}
	for j := range s.pts {
		if j == r {
			continue
		}
		if !acc(s.pts[j]) {
			return false
		}
	}
	for _, pm := range win {
		if !acc(pm.old) {
			return false
		}
	}
	tolB, ok := foldTol(minD2, maxL1)
	if !ok {
		return false
	}
	// Clustering measures pseudo-angle gaps, which understate radian
	// gaps by at most 2×: a ray forms a singleton bucket whenever its
	// radian gap to every other ray is at least 2·tolB. sin(x) ≤ x, so
	// using 2·tolB directly for the sine threshold only ever flags more
	// rays as too close — conservative.
	sinT2 := 4 * tolB * tolB
	for _, pm := range win {
		if !s.isolated(r, pm.robot, pm.old, win, sinT2) {
			return false
		}
		if !s.isolated(r, pm.robot, s.pts[pm.robot], win, sinT2) {
			return false
		}
	}
	return true
}

// isolated reports whether position q of robot m is angularly separated,
// as seen from observer r, from every position any robot other than r
// and m holds now or held in the move window.
func (s *Snapshot) isolated(r, m int, q Point, win []pendingMove, sinT2 float64) bool {
	u := q.Sub(s.pts[r])
	u2 := u.Norm2()
	if u2 == 0 {
		return false
	}
	for j := range s.pts {
		if j == r || j == m {
			continue
		}
		if !rayApart(u, u2, s.pts[j].Sub(s.pts[r]), sinT2) {
			return false
		}
	}
	for _, pm := range win {
		if pm.robot == r || pm.robot == m {
			continue
		}
		if !rayApart(u, u2, pm.old.Sub(s.pts[r]), sinT2) {
			return false
		}
	}
	return true
}

// rayApart reports whether rays u and v (u2 = ‖u‖²) are separated by
// more than the angular tolerance encoded as sinT2 = sin²(tol):
// sin²(angle) = cross²/(‖u‖²‖v‖²), and a non-positive dot product means
// the rays are at least a quarter turn apart — far beyond any tolerance
// foldTol can produce.
func rayApart(u Point, u2 float64, v Point, sinT2 float64) bool {
	v2 := v.Norm2()
	if v2 == 0 {
		return false
	}
	if u.Dot(v) <= 0 {
		return true
	}
	c := u.Cross(v)
	return c*c >= sinT2*u2*v2
}
