package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// hullChecker wraps LogVis and checks every snapshot's World against the
// model.World contract: a World reaches only full, unjittered views;
// its hull is ConvexHull's, bit for bit, and its AllCollinear answer
// geom.AllCollinear's for the snapshot's own point order; and every
// snapshot that shares one World has the same point multiset, so two
// position states never share one.
type hullChecker struct {
	core.LogVis
	n int

	mu      sync.Mutex
	full    int                     // Computes whose snapshot held a World
	partial int                     // Computes of a view missing a robot
	state   map[*model.World]string // each World's point multiset
	errs    []string
}

func (h *hullChecker) Compute(s model.Snapshot) model.Action {
	var msg string
	if s.World != nil {
		pts := s.Points()
		got, want := s.World.Hull(pts).Corners, geom.ConvexHull(pts).Corners
		if !slices.EqualFunc(got, want, func(p, q geom.Point) bool {
			return math.Float64bits(p.X) == math.Float64bits(q.X) && math.Float64bits(p.Y) == math.Float64bits(q.Y)
		}) {
			msg = fmt.Sprintf("shared hull %v, ConvexHull %v", got, want)
		}
		if got, want := s.World.AllCollinear(pts), geom.AllCollinear(pts); got != want {
			msg = fmt.Sprintf("shared AllCollinear %v, geom.AllCollinear %v", got, want)
		}
		if len(s.Others) != h.n-1 {
			msg = fmt.Sprintf("a view of %d of %d other robots holds a World", len(s.Others), h.n-1)
		}
	}
	h.mu.Lock()
	if msg != "" {
		h.errs = append(h.errs, msg)
	}
	if len(s.Others) < h.n-1 {
		h.partial++
	}
	if s.World != nil {
		h.full++
		key := multisetKey(s)
		if prev, ok := h.state[s.World]; ok && prev != key {
			h.errs = append(h.errs, "one World shared by two position states")
		}
		h.state[s.World] = key
	}
	h.mu.Unlock()
	return h.LogVis.Compute(s)
}

// multisetKey is the snapshot's point multiset, bit-exact.
func multisetKey(s model.Snapshot) string {
	var keys []string
	for _, p := range s.Points() {
		keys = append(keys, fmt.Sprintf("%x/%x", math.Float64bits(p.X), math.Float64bits(p.Y)))
	}
	slices.Sort(keys)
	return strings.Join(keys, " ")
}

// TestSharedHullMatchesConvexHull runs LogVis under hullChecker, inline
// and pipelined. Full views of uniform starts share Worlds, each built
// from one position state with ConvexHull's exact corners and
// AllCollinear's answer; jittered Looks and the partial views of a line
// start get none.
func TestSharedHullMatchesConvexHull(t *testing.T) {
	cases := []struct {
		name   string
		fam    config.Family
		n      int
		jitter float64
		shared bool // whether some Look is a full view that gets a World
	}{
		{"uniform-n24", config.Uniform, 24, 0, true},
		{"uniform-n48", config.Uniform, 48, 0, true},
		{"uniform-n24-jitter", config.Uniform, 24, 1e-9, false},
		{"line-n24", config.Line, 24, 0, true},
	}
	for _, c := range cases {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs%d", c.name, procs), func(t *testing.T) {
				h := &hullChecker{n: c.n, state: map[*model.World]string{}}
				opt := DefaultOptions(sched.NewAsyncRandom(), 3)
				opt.SensorJitter = c.jitter
				opt.MaxEpochs = 40
				withProcs(procs, func() {
					if _, err := Run(h, config.Generate(c.fam, c.n, 3), opt); err != nil {
						t.Fatal(err)
					}
				})
				for _, e := range h.errs[:min(len(h.errs), 5)] {
					t.Error(e)
				}
				t.Logf("%d full views over %d Worlds, %d partial views", h.full, len(h.state), h.partial)
				switch {
				case !c.shared && h.full > 0:
					t.Errorf("%d jittered Looks hold a World", h.full)
				case c.shared && len(h.state) < 2:
					t.Errorf("full views span %d Worlds, want several position states", len(h.state))
				case c.fam == config.Line && h.partial == 0:
					t.Error("the line start produced no partial view")
				}
			})
		}
	}
}
