package exact

import (
	"luxvis/internal/geom"
)

// CompleteVisibilityAmong decides, exactly, Complete Visibility among
// the selected subset of points with every point — selected or not —
// acting as a potential obstruction. This is the terminal predicate of
// crash-fault runs: survivors (selected) must be pairwise mutually
// visible, but a halted robot's frozen body still blocks lines of
// sight and still must not be colocated with a survivor.
//
// Like CompleteVisibilityHybrid, it sorts the points to decide
// coincidence exactly, then runs the float angular scan for candidate
// collinear triples; the certified float orientation filter discards
// the provably non-collinear ones, and only the uncertain rest are
// converted to big.Rat and confirmed. The subtlety relative to the full
// predicate: a confirmed collinear triple refutes subset-CV only when
// its two endpoints are both selected and its blocker lies strictly
// between them — an unselected endpoint's blocked sightline is
// irrelevant. The scan emits every exactly-collinear triple once per
// point playing the blocker role, so filtering candidates to selected
// endpoint pairs loses nothing.
//
// selected must have the same length as pts; a nil mask means all
// selected, reducing to CompleteVisibilityHybrid's verdict. It panics on
// NaN/Inf coordinates, like FromFloat.
func CompleteVisibilityAmong(pts []geom.Point, selected []bool) bool {
	if selected == nil {
		return CompleteVisibilityHybrid(pts)
	}
	requireFinite(pts)
	// A survivor sharing a position with anything (alive or crashed) is
	// a collision, not a visibility question.
	if coincident(pts, selected) {
		return false
	}
	// Collinearity alone is not enough here: with unselected points in
	// play the blocker must lie strictly between the selected
	// endpoints, not merely on their line.
	return !anyCandidateConfirmed(pts, selected, StrictlyBetween)
}
