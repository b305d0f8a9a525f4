package core

import (
	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// Scratch is Compute's working memory, exported so that tests can
// replay Computes on a scratch of their choosing.
type Scratch = scratch

// NewScratch returns an empty Scratch, as the pool hands out.
func NewScratch() *Scratch { return new(scratch) }

// ComputeOn is Compute on the working memory sc instead of a pooled one.
func (a *LogVis) ComputeOn(s model.Snapshot, sc *Scratch) model.Action {
	return a.compute(s, sc)
}

// RemembersRing reports whether sc holds a beacon ring keyed by the
// beacon list of s.
func (sc *Scratch) RemembersRing(s model.Snapshot) bool {
	beacons := appendBeacons(nil, s.Others)
	for i := range sc.rings {
		if len(beacons) > 0 && sameBits(sc.rings[i].beacons, beacons) {
			return true
		}
	}
	return false
}

// BeaconsOf returns the beacon list candidateSlots keys its memo by.
func BeaconsOf(s model.Snapshot) []geom.Point { return appendBeacons(nil, s.Others) }

// RingMemoSize is how many beacon rings a scratch remembers.
const RingMemoSize = ringMemoSize
