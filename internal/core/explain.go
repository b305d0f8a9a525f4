package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// Explain walks the same decision tree as Compute and returns a
// human-readable account of the branch taken and, for a refraining
// robot, the reason each nearby option was rejected. It exists for the
// diagnostics CLI and for debugging stuck runs; the returned text is not
// part of the stable API.
func (a *LogVis) Explain(s model.Snapshot) string {
	self := s.Self.Pos
	var b strings.Builder
	act := a.Compute(s)
	fmt.Fprintf(&b, "action: target=%v color=%v stay=%v\n", act.Target, act.Color, act.IsStay(self))

	switch len(s.Others) {
	case 0:
		b.WriteString("branch: alone\n")
		return b.String()
	case 1:
		b.WriteString("branch: pair/line-endpoint\n")
		return b.String()
	}
	pts := s.Points()
	if geom.AllCollinear(pts) {
		b.WriteString("branch: collinear view\n")
		return b.String()
	}
	hull := geom.ConvexHull(pts)
	class := hull.Classify(self)
	fmt.Fprintf(&b, "branch: %v (sees %d, hull corners %d)\n", class, len(s.Others), len(hull.Corners))
	if class != geom.HullInterior {
		if class == geom.HullEdge {
			for _, o := range s.Others {
				if o.Color == model.Interior || o.Color == model.Transit {
					fmt.Fprintf(&b, "side: waiting on visible %v at %v\n", o.Color, o.Pos)
					break
				}
			}
		}
		return b.String()
	}
	slots := a.candidateSlots(s)
	sort.Slice(slots, func(i, j int) bool { return slots[i].dist < slots[j].dist })
	fmt.Fprintf(&b, "interior: %d candidate slots\n", len(slots))
	others := s.OtherPoints()
	baseMargin := s.NearestDist() * a.corridorFrac()
	diam := a.landingDiam(s)
	for i, sl := range slots {
		if i >= 8 {
			b.WriteString("  ... (truncated)\n")
			break
		}
		_, t := geom.ProjectOntoLine(sl.u, sl.v, self)
		chord := sl.u.Dist(sl.v)
		reason := "ok"
		switch {
		case !a.slotUsable(self, sl.u, sl.v, s.Others):
			reason = "structurally unusable (occupied or far-side robot)"
		default:
			if a.slotBusy(s, sl) {
				reason = "transit guard (lander inbound)"
			} else if target, ok := a.landingPoint(s, sl, diam); !ok {
				reason = "degenerate interval"
			} else {
				if d := self.Dist(target); d > 4*chord {
					hop := math.Max(2*chord, 8*s.NearestDist())
					if hop < d {
						target = self.Add(target.Sub(self).Mul(hop / d))
					}
				}
				margin := math.Min(baseMargin, chord*a.slotMargin()/4)
				margin = math.Min(margin, self.Dist(target)/4)
				if !geom.PathClear(self, target, others, margin) {
					reason = "corridor blocked"
				}
			}
		}
		fmt.Fprintf(&b, "  slot %v--%v dist=%.3g t=%.3g: %s\n", sl.u, sl.v, sl.dist, t, reason)
	}
	return b.String()
}
