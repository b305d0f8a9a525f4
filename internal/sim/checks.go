package sim

import (
	"fmt"
	"math/bits"
	"time"

	"luxvis/internal/exact"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// quiescent reports whether the run has reached its stable terminal
// state: the world satisfies Complete Visibility, no robot is moving or
// holds a pending relocation, and every robot has completed a full cycle
// whose Look postdates the last world change. Because algorithms are
// deterministic functions of snapshots and the world has been static
// since that change, every future cycle must repeat the observed stay —
// the configuration is stable forever.
func (e *engine) quiescent() bool {
	for i := range e.st {
		if e.isCrashed(i) {
			// A halted robot is frozen scenery: whatever stage it died
			// in, it will never move or look again, so it cannot block
			// stability — only obstruct visibility.
			continue
		}
		switch e.st[i].Stage {
		case sched.Moving:
			return false
		case sched.Computed:
			if !e.act[i].IsStay(e.pos[i]) {
				return false
			}
		}
		if e.lastCleanLook[i] <= e.lastChange {
			return false
		}
	}
	return e.cvNow()
}

// cvNow evaluates Complete Visibility on the current world, cached per
// world version so the O(n² log n) check runs at most once per change,
// and skipped while the world is known to be completely visible (see
// knownCV); a skipped check still counts in CVChecks. The kernel fans
// the per-observer scan across workers on multi-core hosts; its verdict
// does not depend on the worker count.
func (e *engine) cvNow() bool {
	if e.cvCacheAt != e.lastChange {
		e.cvCacheAt = e.lastChange
		e.res.Kernel.CVChecks++
		var t0 time.Time
		if e.obs != nil {
			//lint:allow detsource observer-gated timing counter; never influences control flow
			t0 = time.Now()
		}
		switch {
		case e.knownCV():
			// Full Complete Visibility implies survivor-CV too.
			e.cvCacheVal = true
		case e.numCrashed > 0:
			// Crash runs terminate on survivor-CV: every surviving pair
			// mutually visible, crashed robots still obstructing.
			e.cvCacheVal = e.survivorCV()
		default:
			e.cvCacheVal = e.vk.CompleteVisibilityFast(e.pos)
			e.cvKnown = e.cvCacheVal
		}
		if e.obs != nil {
			//lint:allow detsource observer-gated timing counter; never influences control flow
			e.res.Kernel.CVNanos += time.Since(t0).Nanoseconds()
		}
	}
	return e.cvCacheVal
}

// accountEpoch advances the epoch counter when every robot has completed
// at least one cycle since the epoch began, and samples Complete
// Visibility at the boundary for the FirstCVEpoch metric.
func (e *engine) accountEpoch() {
	for i := range e.st {
		if e.isCrashed(i) {
			// Epochs are spans where every *live* robot cycles; counting
			// halted robots would freeze the epoch clock forever.
			continue
		}
		if e.st[i].Cycles <= e.epochBase[i] {
			return
		}
	}
	for i := range e.st {
		e.epochBase[i] = e.st[i].Cycles
	}
	e.epochs++
	if e.res.FirstCVEpoch < 0 && e.cvNow() {
		e.res.FirstCVEpoch = e.epochs
	}
	// An attached observer gets the boundary sample even when the caller
	// did not ask for EpochSamples in the Result; the hull classification
	// is the price of observation, not of the benchmark path.
	if e.opt.SampleEpochs || e.obs != nil {
		smp := e.sampleEpoch()
		if e.opt.SampleEpochs {
			e.res.EpochSamples = append(e.res.EpochSamples, smp)
		}
		if e.obs != nil {
			e.obs.EpochEnd(smp)
		}
	}
	e.phaseEpoch = [NumPhases]int{}
	e.phaseMoveEpoch = [NumPhases]int{}
}

// sampleEpoch aggregates the swarm's hull composition and the finished
// epoch's phase attribution at an epoch boundary.
func (e *engine) sampleEpoch() EpochSample {
	smp := EpochSample{
		Epoch:      e.epochs,
		MovesSoFar: e.res.Moves,
		CV:         e.cvNow(),
		Phases:     e.phaseEpoch,
		PhaseMoves: e.phaseMoveEpoch,
	}
	h := geom.ConvexHull(e.pos)
	for _, p := range e.pos {
		switch h.Classify(p) {
		case geom.HullCorner:
			smp.Corners++
		case geom.HullEdge:
			smp.EdgeRobots++
		default:
			smp.Interior++
		}
	}
	return smp
}

// checkSubStep verifies one executed motion sub-step of robot r from old
// to next against every other robot's current position: exact
// co-location at the landing point and exact pass-through along the
// swept sub-segment are violations. Float predicates act as a strict
// superset filter; only filtered hits pay for exact confirmation.
func (e *engine) checkSubStep(r int, old, next geom.Point) {
	seg := geom.Seg(old, next)
	// The spatial index shortlists candidates near the swept segment
	// (superset semantics: it may over-include, never miss), replacing
	// the O(n) full scan on every sub-step.
	e.nearBuf = e.idx.NearSegment(seg, 10*geom.Eps, e.nearBuf[:0])
	for _, o := range e.nearBuf {
		if o == r {
			continue
		}
		q := e.pos[o]
		if q.Eq(next) {
			// Refine the epsilon hit to bitwise coincidence: colocation
			// is "same exact position", and the exact.* confirmation
			// below only covers the pass-through case.
			//lint:allow floateq exact colocation is the property being checked
			if q.X == next.X && q.Y == next.Y {
				e.violate(VColocation, r, o, fmt.Sprintf("both at %v", next))
			}
			continue
		}
		if seg.Dist(q) <= 10*geom.Eps {
			a, b, m := exact.FromFloat(old), exact.FromFloat(next), exact.FromFloat(q)
			if exact.StrictlyBetween(a, b, m) {
				e.violate(VPassThrough, r, o, fmt.Sprintf("robot %d passed through %v", r, q))
			}
		}
	}
}

// endMove records a just-ended motion of robot r — completed, crash-
// interrupted, or still in flight when the run's event budget expired —
// and verifies its executed segment against every earlier-ended move it
// is concurrent with. Two moves are concurrent when either robot's
// cycle span (from its Look to its move end) overlaps the other's
// motion: in the continuous-time model an adversarial scheduler could
// then have run the motions simultaneously. Properly crossing or
// collinearly overlapping paths of concurrent moves violate the paper's
// "paths do not cross" guarantee.
//
// Every conflicting pair is examined exactly once — when the later of
// the two moves ends. (The earlier move is then still in recentMoves:
// pruning keeps any move that ended after some in-progress cycle's
// Look, and the later mover's own Look pins that window open.) Checking
// at move end rather than move start means the check always sees
// executed segments — for a crash-interrupted move the traveled prefix
// rather than the planned path — so the engine's verdict coincides with
// what verify.Audit reconstructs from the trace.
//
// endEvent is the event of the move's final executed sub-step, not the
// event at which the interruption (crash, budget) was noticed: between
// the two the robot changed nothing, so nothing later can have been
// concurrent with its motion.
func (e *engine) endMove(r int, seg geom.Segment, lookEvent, endEvent int) {
	for _, dm := range e.recentMoves {
		if dm.robot != r && dm.endEvent > lookEvent {
			e.confirmPathCross(r, dm.robot, seg, dm.seg)
		}
	}
	e.recentMoves = append(e.recentMoves, doneMove{
		robot:     r,
		seg:       seg,
		lookEvent: lookEvent,
		endEvent:  endEvent,
	})
}

// flushInFlightMoves ends, at run termination, every move still in
// flight (a robot caught mid-motion by the event budget): its traveled
// prefix is an executed segment the path-crossing accounting must see,
// exactly as verify.Audit will see it when it flushes open moves at the
// trace's last event. Robots are flushed in index order so replays of
// one seed record violations identically.
func (e *engine) flushInFlightMoves() {
	for r := range e.st {
		if e.st[r].Stage != sched.Moving || e.isCrashed(r) {
			continue
		}
		e.endMove(r, geom.Seg(e.plan[r].from, e.pos[r]), e.plan[r].lookEvent, e.plan[r].lastStep)
	}
}

// confirmPathCross classifies one segment pair with the float kernel and
// confirms hits exactly.
func (e *engine) confirmPathCross(r, o int, seg, oseg geom.Segment) {
	kind, _ := seg.Intersect(oseg)
	switch kind {
	case geom.ProperCrossing:
		a1, b1 := exact.FromFloat(seg.A), exact.FromFloat(seg.B)
		a2, b2 := exact.FromFloat(oseg.A), exact.FromFloat(oseg.B)
		if exact.SegmentsProperlyCross(a1, b1, a2, b2) {
			e.violate(VPathCross, r, o, fmt.Sprintf("%v crosses %v", seg, oseg))
		}
	case geom.Overlapping:
		a1, b1 := exact.FromFloat(seg.A), exact.FromFloat(seg.B)
		a2, b2 := exact.FromFloat(oseg.A), exact.FromFloat(oseg.B)
		if exact.SegmentsOverlap(a1, b1, a2, b2) {
			e.violate(VPathCross, r, o, fmt.Sprintf("%v overlaps %v", seg, oseg))
		}
	}
}

// pruneRecentMoves drops completed moves that no in-progress cycle can
// overlap anymore: a completed move matters only while some robot holds
// a snapshot taken before the move ended.
func (e *engine) pruneRecentMoves() {
	minLook := e.now
	for i := range e.st {
		if e.isCrashed(i) {
			// A robot halted past Look holds its snapshot forever; its
			// cycle will never run, so it must not pin the window open.
			continue
		}
		if e.st[i].Stage != sched.Idle && e.snapLook[i] >= 0 && e.snapLook[i] < minLook {
			minLook = e.snapLook[i]
		}
	}
	keep := e.recentMoves[:0]
	for _, dm := range e.recentMoves {
		if dm.endEvent > minLook {
			keep = append(keep, dm)
		}
	}
	e.recentMoves = keep
}

// finish populates the Result's summary fields and re-verifies the
// terminal predicate with exact arithmetic.
func (e *engine) finish() {
	e.res.Events = e.now
	if !e.opt.SkipSafetyChecks {
		e.flushInFlightMoves()
	}
	e.res.Epochs = e.epochs
	if s, ok := e.opt.Scheduler.(*sched.SSync); ok {
		e.res.Rounds = s.Rounds()
	}
	e.res.Final = append([]geom.Point(nil), e.pos...)
	e.res.FinalColors = append([]model.Color(nil), e.col...)
	e.res.MinPairDist = geom.MinPairwiseDist(e.pos)
	e.res.ColorsUsed = bits.OnesCount32(e.colorMask)
	for _, d := range e.robotDist {
		if d > e.res.MaxRobotDist {
			e.res.MaxRobotDist = d
		}
	}
	e.sortCrashed()
	if e.res.Reached && !e.confirmReachedExact() {
		// The float predicate accepted a configuration the exact one
		// rejects; report the run as not reached so experiments surface
		// the discrepancy instead of hiding it.
		e.res.Reached = false
	}
}

// ColorsOf returns the distinct colors present in a color slice; a
// convenience for tests and metrics.
func ColorsOf(cols []model.Color) []model.Color {
	var mask uint32
	for _, c := range cols {
		mask |= 1 << uint(c)
	}
	var out []model.Color
	for _, c := range model.AllColors() {
		if mask&(1<<uint(c)) != 0 {
			out = append(out, c)
		}
	}
	return out
}
