// Package core implements LogVis, the reconstruction of the paper's
// O(log N)-time, O(1)-color Complete Visibility algorithm for
// asynchronous robots with lights (Sharma, Vaidyanathan, Trahan, Busch,
// Rai — IPDPS 2017). See DESIGN.md for the provenance note: the phase
// structure below (collinear breakout, Interior Depletion via
// beacon-directed placement on hull edges, Edge Depletion via outward
// bulges, stationary corners) is the published technique of this author
// group for this problem; the abstract's five claims are validated
// empirically by the experiment suite.
//
// The O(log N) engine is the beacon-doubling of Interior Depletion: every
// hull-edge interval between two placed robots (corners and Side robots
// are the beacons) admits one interior robot per epoch, and each landing
// splits its interval in two, so the number of placed robots doubles per
// epoch until the interior is depleted.
package core

import (
	"math"
	"slices"
	"sync"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// LogVis is the asynchronous O(log N)-time Complete Visibility algorithm.
// The zero value is ready to use; Tunables have sane defaults applied at
// first Compute. LogVis is stateless across calls, as the oblivious-robot
// model requires.
type LogVis struct {
	// BulgeFrac scales the Edge Depletion outward bulge: the bulge
	// height is the robot's smallest relevant gap times BulgeFrac
	// (default 1/4). Smaller values are safer near sharp corners but
	// slow convergence slightly.
	BulgeFrac float64
	// SlotMargin is the fraction of a slot interval kept clear at each
	// end when clamping a lander's target (default 1/4).
	SlotMargin float64
	// CorridorFrac scales the clearance margin required around an
	// Interior Depletion corridor, as a fraction of the robot's
	// distance to its nearest visible robot (default 1/8).
	CorridorFrac float64

	// The Ablate* knobs disable individual design decisions so the
	// experiment suite can demonstrate why each exists (experiments A1
	// and A2). They are not part of the algorithm.

	// AblateConstantSagitta replaces the quadratic landing-sagitta law
	// (|uv|²/8D, every landing generation on one common circle) with a
	// constant chord fraction. Expected effect: sub-slot landings poke
	// past the previous generation's curvature, earlier landers get
	// swallowed back into the hull, and the run churns (see DESIGN.md).
	AblateConstantSagitta bool
	// AblateNoTransitGuard drops the one-landing-per-interval Transit
	// guard. Expected effect: concurrent landers race into the same
	// interval and concurrent path crossings rise sharply.
	AblateNoTransitGuard bool
}

// NewLogVis returns a LogVis with default tunables.
func NewLogVis() *LogVis { return &LogVis{} }

// Name implements model.Algorithm.
func (*LogVis) Name() string { return "logvis" }

// Palette implements model.Algorithm: seven colors, constant in N.
func (*LogVis) Palette() []model.Color {
	return []model.Color{
		model.Off, model.Corner, model.Side, model.Interior,
		model.Transit, model.Beacon, model.Done,
	}
}

func (a *LogVis) bulgeFrac() float64 {
	if a.BulgeFrac <= 0 || a.BulgeFrac >= 1 {
		return 0.25
	}
	return a.BulgeFrac
}

func (a *LogVis) slotMargin() float64 {
	if a.SlotMargin <= 0 || a.SlotMargin >= 0.5 {
		return 0.25
	}
	return a.SlotMargin
}

func (a *LogVis) corridorFrac() float64 {
	if a.CorridorFrac <= 0 || a.CorridorFrac >= 1 {
		return 0.125
	}
	return a.CorridorFrac
}

// Compute implements model.Algorithm.
func (a *LogVis) Compute(s model.Snapshot) model.Action {
	self := s.Self.Pos
	switch len(s.Others) {
	case 0:
		// Alone in the world: Complete Visibility is vacuous.
		return model.Stay(self, model.Done)
	case 1:
		// Two mutually visible robots, or the endpoint of a line: in
		// both cases this robot is an extreme point and holds.
		return model.Stay(self, model.Corner)
	}

	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	pts := append(sc.pts[:0], self)
	for _, o := range s.Others {
		pts = append(pts, o.Pos)
	}
	sc.pts = pts
	if s.World.AllCollinear(pts) {
		return a.computeOnLine(s, pts)
	}

	hull := s.World.Hull(pts)
	switch hull.Classify(self) {
	case geom.HullCorner:
		return a.computeCorner(s)
	case geom.HullEdge:
		return a.computeSide(s, hull, pts[1:])
	default:
		return a.computeInterior(s, sc)
	}
}

// scratch is one Compute's reusable working memory. The engine runs
// Computes concurrently, so each call borrows its own from scratchPool
// and nothing in it outlives the call.
type scratch struct {
	// pts is self followed by every visible robot, the order of
	// Snapshot.Points; pts[1:] are the visible robots' positions.
	pts     []geom.Point
	beacons []geom.Point
	// beaconHull holds the corners of the visible beacons' hull.
	beaconHull []geom.Point
	slots      []slot
	// boundaryRing's buffers.
	byAngle     []beaconAngle
	cornerAngle []float64
	cornerOrder []int
	ring        []geom.Point
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// computeOnLine handles the degenerate case in which the robot's entire
// view is collinear — which, by the visibility lemma (checked by geom's
// TestOffLineVisibilityLemma), happens exactly when the whole swarm is
// collinear. Extremes hold as corners; inner robots step off the
// line perpendicularly by a quarter of their nearest gap. Endpoints stay
// on the original line, so after one epoch the swarm is non-collinear.
func (a *LogVis) computeOnLine(s model.Snapshot, pts []geom.Point) model.Action {
	self := s.Self.Pos
	lo, hi := geom.LineExtremes(pts)
	if pts[lo].Eq(self) || pts[hi].Eq(self) {
		return model.Stay(self, model.Corner)
	}
	// Deterministic side: the left normal of the lexicographically
	// oriented line direction.
	dir := pts[hi].Sub(pts[lo])
	if pts[hi].Less(pts[lo]) {
		dir = dir.Neg()
	}
	n := dir.Perp().Unit()
	d := s.NearestDist() / 4
	if d <= 0 || math.IsInf(d, 0) {
		return model.Stay(self, model.Interior)
	}
	return model.MoveTo(self.Add(n.Mul(d)), model.Transit)
}

// computeCorner handles a robot that is a strict corner of its local
// hull — and therefore, by the locality lemma of this literature, of the
// global hull. Corners never move; they anchor every other phase. A
// corner turns Done when its entire view has settled.
func (a *LogVis) computeCorner(s model.Snapshot) model.Action {
	self := s.Self.Pos
	if s.AllOthersColored(model.Corner, model.Done) {
		return model.Stay(self, model.Done)
	}
	return model.Stay(self, model.Corner)
}

// computeSide handles a robot on a hull edge strictly between corners:
// Edge Depletion. Once no Interior Depletion traffic is visible, the
// robot bulges outward perpendicular to its edge by a quarter of its
// smallest relevant gap, becoming a strict corner of the grown hull.
// Side robots bulge concurrently: their outward paths are parallel
// normals from distinct base points, so they cannot cross.
func (a *LogVis) computeSide(s model.Snapshot, hull geom.Hull, others []geom.Point) model.Action {
	self := s.Self.Pos
	ea, eb, ok := hull.EdgeOf(self)
	if !ok {
		// Numerically ambiguous boundary membership: hold as Side and
		// let the next snapshot resolve it.
		return model.Stay(self, model.Side)
	}
	// Wait out Interior Depletion near this robot: any visible lander
	// in flight or interior robot still to place means the edge is
	// still receiving traffic.
	for _, o := range s.Others {
		if o.Color == model.Interior || o.Color == model.Transit {
			return model.Stay(self, model.Side)
		}
	}
	// Nearest on-line neighbours along the containing edge.
	gap := math.Inf(1)
	for _, o := range s.Others {
		if geom.OnSegment(ea, eb, o.Pos) {
			if d := self.Dist(o.Pos); d < gap {
				gap = d
			}
		}
	}
	if nd := s.NearestDist(); nd < gap {
		gap = nd
	}
	if math.IsInf(gap, 0) || gap <= 0 {
		return model.Stay(self, model.Side)
	}
	outward, ok := a.outwardNormal(s, ea, eb)
	if !ok {
		return model.Stay(self, model.Side)
	}
	h := gap * a.bulgeFrac()
	target := self.Add(outward.Mul(h))
	if !geom.PathClear(self, target, others, h*a.corridorFrac()) {
		return model.Stay(self, model.Side)
	}
	return model.MoveTo(target, model.Beacon)
}

// outwardNormal returns the unit normal of edge (ea, eb) pointing away
// from the hull interior, determined by the side on which off-line
// visible robots lie. ok is false when every visible robot is on the
// edge line (impossible in a non-collinear swarm; see the lemma in the
// line-case comment).
func (a *LogVis) outwardNormal(s model.Snapshot, ea, eb geom.Point) (geom.Point, bool) {
	n := eb.Sub(ea).Perp().Unit()
	for _, o := range s.Others {
		switch geom.Orient(ea, eb, o.Pos) {
		case geom.CCW:
			return n.Neg(), true
		case geom.CW:
			return n, true
		}
	}
	return geom.Point{}, false
}

// slot is a candidate landing interval for Interior Depletion: an empty
// stretch of a hull edge between two visible beacons.
type slot struct {
	u, v  geom.Point // beacon positions, interval endpoints
	dist  float64    // distance from the robot to the interval segment
	chord float64    // |uv|
}

// computeInterior handles a robot strictly inside the hull: Interior
// Depletion via beacon-directed placement. The robot finds the nearest
// empty hull-edge interval between two visible beacons (Corner or Side
// lights) with the whole visible swarm on its own side of the interval's
// line, and moves to the clamped foot of its perpendicular on the
// interval. Feet are unique per position, which keeps concurrent landers
// apart; the Transit light plus a projection guard serializes landings
// per interval, which is exactly the one-landing-per-interval-per-epoch
// discipline whose doubling yields O(log N).
func (a *LogVis) computeInterior(s model.Snapshot, sc *scratch) model.Action {
	self := s.Self.Pos
	slots := a.candidateSlots(s, sc)
	if len(slots) == 0 {
		return model.Stay(self, model.Interior)
	}
	// Bound the work per cycle: try the nearest few intervals and, if
	// all are busy or unreachable, wait for the next cycle. The slots
	// come off a heap in compareSlots order, and the structural and
	// corridor checks are O(V) each, so a Compute that tries k of S
	// slots costs O(S + k·(log S + V)) beyond candidateSlots.
	order := slotOrder{slots: slots}
	order.heapify()
	others := sc.pts[1:]
	nearest := s.NearestDist()
	baseMargin := nearest * a.corridorFrac()
	// The bounding box of self ∪ snapshot gives slotUsable's band and
	// the visible diameter the landing sagitta scales against (0 under
	// AblateConstantSagitta, which disables the quadratic law, so the
	// cap fraction applies).
	lo, hi := geom.BoundingBox(sc.pts)
	band := orientBand((hi.X - lo.X) + (hi.Y - lo.Y))
	diam := 0.0
	if !a.AblateConstantSagitta {
		diam = hi.Sub(lo).Norm()
	}
	// Two passes. First, local landings: slots whose perpendicular slab
	// (with slack) contains the robot and that are at most a few chord
	// lengths away. Local approach paths are short and near-
	// perpendicular to the chord, so concurrent local landers on one
	// edge descend along (near-)parallel corridors; the per-slot
	// Transit guard serializes the final approach per interval (the
	// BDCP one-landing-per-interval discipline) and stacked landers are
	// ordered by the corridor-clearance check. Second, remote flights:
	// anything else, strongly serialized — a long corridor across the
	// swarm can cross any other in-flight path, so a remote flight
	// launches only when no in-flight lander is visible at all and this
	// robot is the uncontested nearest claimant of the slot, and it
	// advances in bounded hops so its active motion segments stay short.
	nearestSlot := order.at(0).dist
	for _, local := range []bool{true, false} {
		maxTries := 8
		if !local {
			maxTries = 64
		}
		for i := 0; i < maxTries && i < len(slots); i++ {
			sl := order.at(i)
			if !local && sl.dist > 1.5*nearestSlot+geom.Eps {
				// Remote motion stays radial: only intervals about as
				// close as the closest one are eligible, so long
				// corridors point outward from the robot's own region
				// of the interior and two remote corridors from
				// different origins diverge instead of crossing.
				break
			}
			_, t := geom.ProjectOntoLine(sl.u, sl.v, self)
			chord := sl.chord
			isLocal := t >= -0.25 && t <= 1.25 && sl.dist <= 4*chord
			if local != isLocal {
				continue
			}
			if !a.slotUsable(self, sl.u, sl.v, s.Others, band) {
				continue
			}
			// A robot farther than one hop from its landing point is
			// merely *approaching* the boundary: it drifts a bounded
			// hop along the straight line to the landing point,
			// re-Looking at fresh state between hops. Approaches need
			// no slot claim — any number of deep robots drain outward
			// in parallel, which is what keeps the deep-interior tail
			// from serializing — only the final landing hop claims the
			// interval (contest + Transit guard).
			hop := math.Max(2*chord, 8*nearest)
			rawTarget, ok := a.landingPoint(s, sl, diam)
			if !ok {
				continue
			}
			if !local && a.slotContested(s, sl) {
				continue
			}
			if a.slotBusy(s, sl) {
				continue
			}
			target := rawTarget
			if d := self.Dist(rawTarget); !local && d > hop {
				// Hop: re-Look at fresh state every few gap-lengths
				// instead of holding one cross-swarm motion segment
				// active for a long stretch of the schedule.
				target = self.Add(rawTarget.Sub(self).Mul(hop / d))
			}
			// The corridor clearance must stay below the target's own
			// distance to the interval endpoints — or a lone far-away
			// robot (whose nearest neighbour is distant) would reject
			// every corridor for brushing past its interval's anchors —
			// and below a fraction of the corridor's own length, so a
			// millimetre hop is never vetoed by a robot metres away.
			margin := math.Min(baseMargin, chord*a.slotMargin()/4)
			margin = math.Min(margin, self.Dist(target)/4)
			if !geom.PathClear(self, target, others, margin) {
				continue
			}
			return model.MoveTo(target, model.Transit)
		}
	}
	return model.Stay(self, model.Interior)
}

// compareSlots orders candidate slots by distance, then chord length,
// then lexicographic anchors, so a robot's preference order is total and
// deterministic: only slots with == distances, chords and anchors tie.
func compareSlots(a, b slot) int {
	switch {
	case a.dist < b.dist:
		return -1
	case a.dist > b.dist:
		return 1
	}
	switch {
	case a.chord < b.chord:
		return -1
	case a.chord > b.chord:
		return 1
	}
	switch {
	case a.u.Less(b.u):
		return -1
	case b.u.Less(a.u):
		return 1
	case a.v.Less(b.v):
		return -1
	case b.v.Less(a.v):
		return 1
	}
	return 0
}

// slotOrder hands out slots in compareSlots order without sorting them
// all: a Compute visits at most 64 and usually a handful, so it keeps a
// binary min-heap in slots[:len(slots)-popped] and pops on demand. Each
// pop moves the heap's minimum to the end, so the i-th smallest slot
// lands at slots[len(slots)-1-i]. Because compareSlots is a total order
// up to identical slots, the sequence is the one a full sort gives.
type slotOrder struct {
	slots  []slot
	popped int
}

func (o *slotOrder) heapify() {
	for i := len(o.slots)/2 - 1; i >= 0; i-- {
		o.down(i, len(o.slots))
	}
}

// at returns the i-th slot in compareSlots order; i < len(o.slots).
func (o *slotOrder) at(i int) slot {
	for o.popped <= i {
		n := len(o.slots) - o.popped
		o.slots[0], o.slots[n-1] = o.slots[n-1], o.slots[0]
		o.down(0, n-1)
		o.popped++
	}
	return o.slots[len(o.slots)-1-i]
}

// down sifts slots[i] down the heap slots[:n].
func (o *slotOrder) down(i, n int) {
	h := o.slots
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && compareSlots(h[c+1], h[c]) < 0 {
			c++
		}
		if compareSlots(h[c], h[i]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// slotContested reports whether a visible competitor has a better claim
// on the interval: an Interior or Transit robot strictly closer to it
// (ties broken by position order). Both contenders see each other and
// evaluate the same comparison, so at most one of any mutually visible
// pair launches a remote flight toward a given interval.
//
// The rule is deliberately strict — defer to *any* nearer competitor.
// Two relaxations were tried and rejected with measurements: dropping
// the rule entirely de-serializes remote flights and large swarms stop
// converging (collisions appear); predicting the competitor's own
// preferred interval and deferring only there costs O(V·S) per Compute
// for a negligible epoch gain. The strict rule's cost is a measurable
// super-logarithmic tail on deep-interior workloads (see T1 and
// DESIGN.md's substitution log).
func (a *LogVis) slotContested(s model.Snapshot, sl slot) bool {
	seg := geom.Seg(sl.u, sl.v)
	myDist := seg.Dist(s.Self.Pos)
	for _, o := range s.Others {
		if o.Color != model.Interior && o.Color != model.Transit {
			continue
		}
		d := seg.Dist(o.Pos)
		// The tie-break needs a strict total order on (distance,
		// position); an epsilon band here would make "contested" fail
		// transitivity and let two robots defer to each other forever.
		//lint:allow floateq exact comparison needed for a total tie-break order
		if d < myDist || (d == myDist && o.Pos.Less(s.Self.Pos)) {
			return true
		}
	}
	return false
}

// candidateSlots enumerates the empty intervals between consecutive
// visible beacons along the boundary of the visible-beacon hull. Beacons
// occupy the hull boundary, so ordering them by angle around the beacon
// hull's centroid (a convex-boundary point has a unique centroid angle)
// yields the boundary ring; consecutive ring members are exactly the
// landing intervals. Stale-colored beacons that are not on the boundary
// anymore are filtered by a single OnSegment check against the edge
// their angle brackets. For B beacons and C beacon-hull corners that is
// one O(V) scan for the beacons, the hull (bucket-ordered, so O(B) on
// spread-out input), the angle sorts of the beacons and of the corners,
// O(B log B) together, and O(B log C) edge lookups; see boundaryRing. The structural validity of
// each interval (emptiness, one-sidedness) is checked later, per tried
// interval.
func (a *LogVis) candidateSlots(s model.Snapshot, sc *scratch) []slot {
	self := s.Self.Pos
	beacons := sc.beacons[:0]
	for _, o := range s.Others {
		// Done robots are settled corners and anchor slots just as
		// Corner robots do.
		if o.Color == model.Corner || o.Color == model.Side || o.Color == model.Done {
			beacons = append(beacons, o.Pos)
		}
	}
	sc.beacons = beacons
	if len(beacons) < 2 {
		return nil
	}
	cs := geom.ConvexHullInto(sc.beaconHull, beacons).Corners
	sc.beaconHull = cs
	var ring []geom.Point
	switch len(cs) {
	case 0, 1:
		return nil
	case 2:
		ring = collinearRing(beacons, cs[0], cs[1])
	default:
		ring = boundaryRing(beacons, cs, sc)
	}
	if len(ring) < 2 {
		return nil
	}
	out := sc.slots[:0]
	add := func(u, v geom.Point) {
		if u.Eq(v) {
			return
		}
		out = append(out, slot{u: u, v: v, dist: geom.Seg(u, v).Dist(self), chord: u.Dist(v)})
	}
	for k := 0; k+1 < len(ring); k++ {
		add(ring[k], ring[k+1])
	}
	if len(cs) > 2 {
		add(ring[len(ring)-1], ring[0]) // close the ring
	}
	sc.slots = out
	return out
}

// collinearRing orders the beacons of a degenerate (collinear) beacon
// set along the segment AB.
func collinearRing(beacons []geom.Point, A, B geom.Point) []geom.Point {
	type bp struct {
		p geom.Point
		t float64
	}
	run := make([]bp, 0, len(beacons))
	for _, w := range beacons {
		if geom.OnSegment(A, B, w) {
			_, t := geom.ProjectOntoLine(A, B, w)
			run = append(run, bp{p: w, t: t})
		}
	}
	slices.SortFunc(run, func(a, b bp) int {
		switch {
		case a.t < b.t:
			return -1
		case a.t > b.t:
			return 1
		default:
			return 0
		}
	})
	out := make([]geom.Point, 0, len(run))
	for _, r := range run {
		if len(out) > 0 && out[len(out)-1].Eq(r.p) {
			continue
		}
		out = append(out, r.p)
	}
	return out
}

// boundaryRing returns the beacons that lie on the beacon hull's
// boundary, in CCW order, in O(B log B): sort everything by angle around
// the hull centroid, then find each beacon's edge by a binary search over
// the corner angles and keep the beacon only if it sits on the edge its
// angle brackets. Its buffers, and the returned ring, live in sc.
func boundaryRing(beacons []geom.Point, corners []geom.Point, sc *scratch) []geom.Point {
	c := geom.Centroid(corners)
	all := sc.byAngle[:0]
	for _, w := range beacons {
		all = append(all, beaconAngle{p: w, ang: w.Sub(c).Angle()})
	}
	sc.byAngle = all
	slices.SortFunc(all, func(a, b beaconAngle) int {
		switch {
		case a.ang < b.ang:
			return -1
		case a.ang > b.ang:
			return 1
		default:
			return 0
		}
	})

	// Corner angles in the same sorted order; corners are a subset of
	// the beacons, so their angles appear in `all` too.
	ca := sc.cornerAngle[:0]
	ci := sc.cornerOrder[:0] // corner index sorted by angle
	for i, p := range corners {
		ca = append(ca, p.Sub(c).Angle())
		ci = append(ci, i)
	}
	sc.cornerAngle, sc.cornerOrder = ca, ci
	slices.SortFunc(ci, func(i, j int) int {
		switch {
		case ca[i] < ca[j]:
			return -1
		case ca[i] > ca[j]:
			return 1
		default:
			return 0
		}
	})

	// edgeFor returns the hull edge whose angular wedge contains ang:
	// between sorted corner k and the next one (wrapping).
	edgeFor := func(ang float64) (geom.Point, geom.Point) {
		// Find the last sorted corner with angle <= ang (binary search).
		lo, hi := 0, len(ci)
		for lo < hi {
			mid := (lo + hi) / 2
			if ca[ci[mid]] <= ang {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		k := lo - 1
		if k < 0 {
			k = len(ci) - 1 // wraps past -π
		}
		a := corners[ci[k]]
		b := corners[ci[(k+1)%len(ci)]]
		return a, b
	}

	out := sc.ring[:0]
	for _, w := range all {
		ea, eb := edgeFor(w.ang)
		if w.p.Eq(ea) || w.p.Eq(eb) || geom.OnSegment(ea, eb, w.p) {
			if len(out) > 0 && out[len(out)-1].Eq(w.p) {
				continue
			}
			out = append(out, w.p)
		}
	}
	sc.ring = out
	return out
}

// beaconAngle is a beacon and its angle around the beacon hull's
// centroid.
type beaconAngle struct {
	p   geom.Point
	ang float64
}

// slotUsable checks the two structural conditions on an interval (u, v):
// the open segment holds no visible robot, and no settled visible robot
// lies strictly on the far side of its line (so the interval plausibly
// spans a hull-boundary stretch as seen from here). In-flight landers
// (Transit/Beacon lights) are exempt from the far-side condition: they
// legitimately sit just outside the chord of the slot they are landing
// in, and the Transit guard — not this check — arbitrates slot busyness.
// The robot itself must be strictly off the line.
//
// band is orientBand of the span of a point set holding u, v and every
// robot of others. Most robots lie far from the chord's line, and for
// them one cross product decides: |Cross2(u, v, w)| > band means w is
// neither Eq to u nor to v, and Orient(u, v, w) is the sign of the cross
// product, so w is off the line and not between u and v (orientBand
// gives both facts). Only robots inside the band take the Eq, Orient and
// StrictlyBetween path, which answers exactly as without the band.
func (a *LogVis) slotUsable(self, u, v geom.Point, others []model.RobotView, band float64) bool {
	mySide := geom.Orient(u, v, self)
	if mySide == geom.Collinear {
		return false
	}
	for _, w := range others {
		var o geom.Orientation
		switch cr := geom.Cross2(u, v, w.Pos); {
		case cr > band:
			o = geom.CCW
		case cr < -band:
			o = geom.CW
		default:
			if w.Pos.Eq(u) || w.Pos.Eq(v) {
				continue
			}
			o = geom.Orient(u, v, w.Pos)
			if o == geom.Collinear {
				if geom.StrictlyBetween(u, v, w.Pos) {
					return false
				}
				continue
			}
		}
		if w.Color == model.Transit || w.Color == model.Beacon {
			continue
		}
		if o != mySide {
			return false
		}
	}
	return true
}

// maxBandSpan is the largest span orientBand gives a finite band for.
const maxBandSpan = 1 << 20

// orientBand returns the band slotUsable compares cross products
// against, for points whose X span plus Y span (maxX-minX)+(maxY-minY)
// is span: 2·Eps·max(1, span). For any u, v, w of such a set:
//
//   - Orient(u, v, w) answers by the sign of Cross2(u, v, w) when the
//     cross product lies outside the band. Orient's tolerance is
//     Eps·max(1, |v-u|₁, |w-u|₁), and each rounded L1 distance is at
//     most the rounded span, because |v.X-u.X| ≤ maxX-minX holds exactly
//     and rounding is monotone (the argument of geom's orientBound).
//   - A w that is Eq to u or to v falls inside the band. Then w-u or
//     w-v is at most Eps in each coordinate (up to the rounding of Eq's
//     own test), so the exact cross product, (v-u)×(w-u) = (v-u)×(w-v),
//     is at most about Eps·|v-u|₁ ≤ Eps·span. Cross2's rounding error is
//     below 5·2⁻⁵³·span², which is under 0.6·Eps·span while span ≤
//     maxBandSpan, so the computed value stays inside 2·Eps·span.
//
// Above maxBandSpan the band is +Inf and every robot takes the exact
// path; a NaN span gives a NaN band, which no comparison passes either.
func orientBand(span float64) float64 {
	if span > maxBandSpan {
		return math.Inf(1)
	}
	return 2 * geom.Eps * max(1, span)
}

// arcFracCap caps the sagitta of a landing arc as a fraction of its
// chord. Landers touch down on a shallow circular arc bulging slightly
// outward of the hull between the two anchor beacons, so a landed robot
// is a strict corner of the grown hull immediately. Direct corner
// insertion is what makes Interior Depletion monotone — a landed robot
// never becomes a Side robot and never re-enters the interior, which
// rules out the land/bulge/reclassify churn observed with on-chord
// landings.
const arcFracCap = 1.0 / 16

// landingSagitta returns the outward bulge height for a landing over a
// chord of the given length, in a swarm of visible diameter diam. The
// quadratic scaling |uv|²/(8·diam) makes every generation of landings
// approximate one common circle of radius ~diam: with a constant
// chord-fraction sagitta instead, each sub-slot landing pokes out
// proportionally more than the local curvature of the previous
// generation, flattening and eventually swallowing earlier landers — the
// churn loop observed at N ≥ 128.
func landingSagitta(chord, diam float64) float64 {
	h := chord * arcFracCap
	if diam > 0 {
		if q := chord * chord / (8 * diam); q < h {
			h = q
		}
	}
	return h
}

// landingPoint computes where the robot would land in the interval: its
// perpendicular-foot parameter, squashed strictly monotonically into the
// interval's interior, evaluated on the outward landing arc. Distinct
// robot positions map to distinct landing points (a hard clamp would
// collapse everything below the margin onto one exact point — that
// colocation was observed under the randomized ASYNC scheduler before
// the squash). diam is the diagonal of the snapshot's bounding box,
// or 0 under AblateConstantSagitta.
func (a *LogVis) landingPoint(s model.Snapshot, sl slot, diam float64) (geom.Point, bool) {
	self := s.Self.Pos
	_, t := geom.ProjectOntoLine(sl.u, sl.v, self)
	// Feet inside the margins are kept exact, so robots above the
	// interval descend along parallel perpendiculars and cannot cross;
	// feet outside are mapped just inside the margin by a continuous,
	// strictly monotone squash whose targets stay close to their feet,
	// so corridors never graze far along the edge. The end margin
	// shrinks for robots already hugging the chord: a robot a hair
	// inside the hull should hop out along (nearly) its own
	// perpendicular instead of being dragged a quarter-interval
	// sideways along a grazing corridor that everything nearby blocks.
	m := a.slotMargin()
	chord := sl.u.Dist(sl.v)
	if chord <= 0 {
		return geom.Point{}, false
	}
	if f := geom.Seg(sl.u, sl.v).Dist(self) / chord; f < m {
		m = math.Max(f, 1.0/32)
	}
	switch {
	case t < m:
		x := m - t
		t = m - (m/2)*(x/(x+1))
	case t > 1-m:
		x := t - (1 - m)
		t = 1 - m + (m/2)*(x/(x+1))
	}
	// Land on the outward arc over the chord (u, v): bulge away from
	// the robot's own (interior) side.
	h := landingSagitta(chord, diam)
	if h <= 0 || math.IsInf(h, 0) || math.IsNaN(h) {
		// Degenerate scales (the quadratic law underflowed against an
		// astronomically large visible diameter, or a non-finite
		// input): no safe arc exists over this chord.
		return geom.Point{}, false
	}
	if geom.Orient(sl.u, sl.v, self) == geom.CCW {
		h = -h
	}
	arc := geom.ArcThrough(sl.u, sl.v, h)
	return arc.At(t), true
}

// slotBusy applies the Transit guard: an interval with a visible
// in-flight lander nearby admits no second landing until the first
// settles. One landing per interval at a time is the BDCP discipline
// whose doubling yields the O(log N) bound; racing landers that slip
// past the guard on stale snapshots land at distinct points on the same
// arc along near-parallel perpendiculars, so the residual race is
// benign. In-flight robots far from the interval merely happen to
// project into its slab and are ignored — without the distance test, a
// handful of distant flights marks most of the boundary busy.
func (a *LogVis) slotBusy(s model.Snapshot, sl slot) bool {
	if a.AblateNoTransitGuard {
		return false
	}
	chord := sl.u.Dist(sl.v)
	seg := geom.Seg(sl.u, sl.v)
	for _, o := range s.Others {
		if o.Color != model.Transit {
			continue
		}
		_, to := geom.ProjectOntoLine(sl.u, sl.v, o.Pos)
		if to > -0.125 && to < 1.125 && seg.Dist(o.Pos) <= 8*chord {
			return true
		}
	}
	return false
}
