package exact

import (
	"luxvis/internal/geom"
)

// candidateTol is the folded-angle tolerance handed to the float
// candidate filter. An exactly collinear triple of finite float64
// coordinates produces a folded-angle gap many orders of magnitude below
// this, so the candidate set is a strict superset of the exactly
// collinear triples and confirming candidates exactly decides CV exactly.
const candidateTol = 1e-5

// CompleteVisibilityHybrid decides Complete Visibility for float points
// exactly, at O(n² log n) expected cost:
//
//   - distinctness: the points are sorted by coordinates and adjacent
//     ones compared (float equality is rational equality, because
//     conversion to big.Rat is lossless);
//   - collinearity: a float angular scan proposes candidate collinear
//     triples, a superset of the exactly collinear ones (candidateTol).
//     A certified float orientation filter (orientFilter, Shewchuk's
//     orient2d stage A) proves most candidates non-collinear outright;
//     only the ones it cannot certify are converted to big.Rat and
//     confirmed or refuted with Collinear.
//
// The verdict is therefore exact: the filter only certifies a nonzero
// sign when the float error bound proves it equals the rational sign,
// and every other candidate is decided over big.Rat. The full O(n³)
// exact predicate (CompleteVisibility) is cross-validated against this
// in tests. It panics on NaN/Inf coordinates, like FromFloat.
func CompleteVisibilityHybrid(pts []geom.Point) bool {
	requireFinite(pts)
	if coincident(pts, nil) {
		return false
	}
	// Any confirmed collinear triple of distinct points has one point
	// strictly between the others, hence a blocked pair.
	return !anyCandidateConfirmed(pts, nil, Collinear)
}

// BlockedPairExact reports whether the specific pair (i, j) is blocked,
// exactly.
func BlockedPairExact(pts []geom.Point, i, j int) bool {
	eps := FromFloats(pts)
	return !Visible(eps, i, j)
}
