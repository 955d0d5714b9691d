// Package oracle checks MOLQ answers by brute force, independently of the
// program under test: it imports nothing from the molq module, so a bug in
// the pipeline cannot also hide in the check.
//
// An answer is a location l and a claimed cost c. Two checks apply:
//
//   - Cost: c equals MWGD(l), the sum over types of the type weight times
//     the smallest object-weighted distance from l to an object of that type
//     (Eq 3 of the paper with multiplicative weights), computed by a full
//     scan of every object — or exceeds it by no more than the solver's
//     stopping bound ε (see CheckCost). CostGap gives the exact difference.
//   - Probes: no probe location p — every point of a grid over the search
//     space and every object location — has MWGD(p) < c/(1+ε). The solver
//     stops Weiszfeld iteration at relative error ε, so its cost may exceed
//     the optimum by that factor and no more; a probe below c/(1+ε) proves
//     the answer is not optimal.
package oracle

import (
	"fmt"
	"math"
)

// Object is one point of interest with its object weight (the distance
// multiplier w^o; 1 for unweighted types).
type Object struct {
	X, Y, W float64
}

// Instance is one MOLQ input: the object sets, one per type.
type Instance struct {
	Types [][]Object
}

// MWGD returns Σ_t weights[t]·min_o w_o·d(p, o), the minimum weighted group
// distance at (x, y) under the given type weights.
func (in *Instance) MWGD(x, y float64, weights []float64) float64 {
	total := 0.0
	for t, set := range in.Types {
		// Compare w²·d² to find the minimum without a square root per object;
		// both factors are non-negative, so the order is that of w·d.
		best := math.Inf(1)
		for _, o := range set {
			dx, dy := x-o.X, y-o.Y
			if v := o.W * o.W * (dx*dx + dy*dy); v < best {
				best = v
			}
		}
		total += weights[t] * math.Sqrt(best)
	}
	return total
}

// Bounds is an axis-aligned search space.
type Bounds struct {
	MinX, MinY, MaxX, MaxY float64
}

// CostTolerance is the relative slack allowed for rounding: the program
// sums the same terms in another order, so values may differ in the last
// bits.
const CostTolerance = 1e-9

// CostGap returns (cost − MWGD(x, y)) / MWGD(x, y): 0 up to CostTolerance
// when the claimed cost is the cost at the claimed location.
func (in *Instance) CostGap(x, y, cost float64, weights []float64) float64 {
	want := in.MWGD(x, y, weights)
	return (cost - want) / math.Max(1, math.Abs(want))
}

// CheckCost reports an error unless MWGD(x, y) ≤ cost ≤ (1+eps)·MWGD(x, y),
// up to CostTolerance. The claimed cost is the winning combination's
// weighted distance at (x, y). When an iterative solve stops within eps of
// that combination's optimum at a point just outside the combination's
// region, another object is nearer and MWGD(x, y) is lower, by no more
// than the stopping bound allows; a cost below MWGD(x, y) is never right.
func (in *Instance) CheckCost(x, y, cost, eps float64, weights []float64) error {
	want := in.MWGD(x, y, weights)
	slack := CostTolerance * math.Max(1, math.Abs(want))
	if math.IsNaN(cost) || cost < want-slack || cost > want*(1+eps)+slack {
		return fmt.Errorf("cost %.17g at (%g, %g), brute-force MWGD %.17g", cost, x, y, want)
	}
	return nil
}

// CheckProbes reports an error when some probe — a grid×grid lattice over b
// (cell centres) or any object location — has MWGD below cost/(1+eps).
func (in *Instance) CheckProbes(b Bounds, grid int, cost, eps float64, weights []float64) error {
	floor := cost / (1 + eps) * (1 - CostTolerance)
	check := func(x, y float64) error {
		if v := in.MWGD(x, y, weights); v < floor {
			return fmt.Errorf("probe (%g, %g) has MWGD %.17g, below claimed cost %.17g/(1+%g)", x, y, v, cost, eps)
		}
		return nil
	}
	for _, set := range in.Types {
		for _, o := range set {
			if err := check(o.X, o.Y); err != nil {
				return err
			}
		}
	}
	dx := (b.MaxX - b.MinX) / float64(grid)
	dy := (b.MaxY - b.MinY) / float64(grid)
	for i := 0; i < grid; i++ {
		for j := 0; j < grid; j++ {
			if err := check(b.MinX+(float64(i)+0.5)*dx, b.MinY+(float64(j)+0.5)*dy); err != nil {
				return err
			}
		}
	}
	return nil
}
