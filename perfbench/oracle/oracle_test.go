package oracle

import (
	"math"
	"strings"
	"testing"
)

// Three types, one object each, at the corners of an equilateral triangle
// with unit circumradius: the Fermat point is the centroid, where every
// vertex subtends 120°, and its cost is three circumradii.
func equilateral() (*Instance, float64, float64) {
	in := &Instance{}
	for k := 0; k < 3; k++ {
		a := math.Pi/2 + float64(k)*2*math.Pi/3
		in.Types = append(in.Types, []Object{{X: math.Cos(a), Y: math.Sin(a), W: 1}})
	}
	return in, 0, 0
}

func TestEquilateralFermatPoint(t *testing.T) {
	in, cx, cy := equilateral()
	w := []float64{1, 1, 1}
	if got := in.MWGD(cx, cy, w); math.Abs(got-3) > 1e-12 {
		t.Fatalf("MWGD(centroid) = %v, want 3", got)
	}
	if err := in.CheckCost(cx, cy, 3, 1e-3, w); err != nil {
		t.Fatal(err)
	}
	b := Bounds{-1, -1, 1, 1}
	if err := in.CheckProbes(b, 40, 3, 1e-3, w); err != nil {
		t.Fatalf("true optimum rejected: %v", err)
	}
	// A vertex costs two sides (2√3 ≈ 3.46): the grid has probes near the
	// centroid that beat it.
	vx, vy := in.Types[0][0].X, in.Types[0][0].Y
	side := math.Sqrt(3)
	if err := in.CheckCost(vx, vy, 2*side, 1e-3, w); err != nil {
		t.Fatal(err)
	}
	if err := in.CheckProbes(b, 40, 2*side, 1e-3, w); err == nil {
		t.Fatal("vertex accepted as optimum")
	}
}

// Collinear objects with weights 1, 1 and 3 (type weights): the weighted
// median is the heavy point, since its weight exceeds half the total.
func TestCollinearWeightedMedian(t *testing.T) {
	in := &Instance{Types: [][]Object{
		{{X: 0, Y: 0, W: 1}},
		{{X: 4, Y: 0, W: 1}},
		{{X: 10, Y: 0, W: 1}},
	}}
	w := []float64{1, 1, 3}
	// At x=10: 10 + 6 + 0 = 16.
	if got := in.MWGD(10, 0, w); got != 16 {
		t.Fatalf("MWGD(10,0) = %v, want 16", got)
	}
	b := Bounds{-1, -5, 11, 5}
	if err := in.CheckProbes(b, 24, 16, 1e-3, w); err != nil {
		t.Fatalf("weighted median rejected: %v", err)
	}
	// The unweighted median (x=4) costs 4+0+18 = 22 and must be rejected.
	if err := in.CheckCost(4, 0, 22, 1e-3, w); err != nil {
		t.Fatal(err)
	}
	if err := in.CheckProbes(b, 24, 22, 1e-3, w); err == nil {
		t.Fatal("unweighted median accepted")
	}
}

// With one type, MWGD is the smallest object-weighted distance: a heavy
// near object loses to a light far one.
func TestOneTypeNearestSite(t *testing.T) {
	in := &Instance{Types: [][]Object{{
		{X: 1, Y: 0, W: 5}, // 5·1 = 5
		{X: 0, Y: 3, W: 1}, // 1·3 = 3
		{X: -4, Y: 0, W: 2},
	}}}
	if got := in.MWGD(0, 0, []float64{2}); got != 6 {
		t.Fatalf("MWGD = %v, want 2·3", got)
	}
	// The optimum sits on an object (cost 0); any positive claim fails.
	b := Bounds{-5, -5, 5, 5}
	if err := in.CheckProbes(b, 10, 0, 1e-3, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := in.CheckProbes(b, 10, 0.5, 1e-3, []float64{2}); err == nil {
		t.Fatal("positive cost accepted with a zero-cost object location")
	}
}

// A claimed cost may exceed MWGD at its location by the stopping bound, not
// more, and may never fall below it; CostGap measures the excess.
func TestCheckCostBounds(t *testing.T) {
	in, cx, cy := equilateral()
	w := []float64{1, 1, 1}
	if err := in.CheckCost(cx, cy, 3.002, 1e-3, w); err != nil {
		t.Fatalf("cost within the stopping bound rejected: %v", err)
	}
	if gap := in.CostGap(cx, cy, 3.002, w); math.Abs(gap-0.002/3) > 1e-12 {
		t.Errorf("CostGap = %v, want %v", gap, 0.002/3)
	}
	for _, cost := range []float64{3.004, 2.999} {
		err := in.CheckCost(cx, cy, cost, 1e-3, w)
		if err == nil || !strings.Contains(err.Error(), "brute-force") {
			t.Errorf("CheckCost(%v) = %v, want a mismatch", cost, err)
		}
	}
}
