package main

import (
	"context"
	"fmt"
	"time"

	"molq/client"
	"molq/internal/core"
	"molq/internal/dataset"
	"molq/internal/geom"
	"molq/internal/query"
	"molq/perfbench/oracle"
)

// The fixed3 class solves one three-type problem whose input does not
// depend on the seed: one object per type, the winning group of a
// reweighted three-type planner session (run seed 7, session 240, three
// types of 500 objects). The exact three-point Fermat-Weber solver returns
// the second point at cost 28.4818 although the first costs 28.0738, so the
// probe check rejects every fixed3 answer: each fixed3 operation counts as
// failed until the solver is fixed. The class keeps the three-point path,
// which the four-type sessions never reach, under test in both phases;
// every round of either phase runs exactly one fixed3 operation.
var (
	fixed3Points = []geom.Point{
		{X: 114.85534177991244, Y: 5099.5584509684404},
		{X: 113.63328096451426, Y: 5098.9887712290929},
		{X: 120.37064354799566, Y: 5110.1076171599443},
	}
	fixed3Weights = []float64{2.188578309456807, 3.4835428574124894, 1.9637952010223003}
)

const fixed3Engine = "fixed3"

// fixed3Sets is the fixed problem as library input.
func fixed3Sets() [][]core.Object {
	sets := make([][]core.Object, len(fixed3Points))
	for t, p := range fixed3Points {
		sets[t] = []core.Object{{Type: t, Loc: p, TypeWeight: fixed3Weights[t], ObjWeight: 1}}
	}
	return sets
}

// fixed3Request is the engine-creation body of the fixed problem.
func fixed3Request() client.EngineRequest {
	b := searchSpace
	req := client.EngineRequest{Name: fixed3Engine, Method: "rrb", Bounds: &b}
	for t, p := range fixed3Points {
		req.Types = append(req.Types, client.Type{Name: poiTypes[t], Objects: []client.Object{{X: p.X, Y: p.Y}}})
	}
	return req
}

// checkFixed3 applies both oracle checks to an answer of the fixed problem.
func checkFixed3(x, y, cost float64) error {
	in := &oracle.Instance{}
	for _, p := range fixed3Points {
		in.Types = append(in.Types, []oracle.Object{{X: p.X, Y: p.Y, W: 1}})
	}
	if err := in.CheckCost(x, y, cost, solverEps, fixed3Weights); err != nil {
		return err
	}
	return in.CheckProbes(oracleBounds(), probeGrid, cost, solverEps, fixed3Weights)
}

// solveFixed3 runs the planner phase's fixed3 operation in process.
func solveFixed3(ctx context.Context, t *tally) {
	in := query.Input{Sets: fixed3Sets(), Bounds: dataset.DefaultBounds}
	start := time.Now()
	r, err := query.SolveContext(ctx, in, query.RRB)
	t.done(classFixed3, ms(time.Since(start)), err)
	if err == nil {
		if err := checkFixed3(r.Loc.X, r.Loc.Y, r.Cost); err != nil {
			t.wrong(classFixed3, fmt.Errorf("in process: %w", err))
		}
	}
}
