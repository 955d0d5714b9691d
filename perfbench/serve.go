package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"molq/client"
	"molq/internal/dataset"
	"molq/internal/httpapi"
	"molq/internal/query"
	"molq/perfbench/oracle"
)

// Serving workload shape (node-rw and cluster-rw share it). The server
// holds one prepared engine per region; query cost depends on the region's
// layout, so several regions per run keep the figures from following the
// seed's one layout.
const (
	serveRegions = 8   // prepared engines, one per region
	serveObjects = 400 // objects per type in each region
	batchVectors = 16  // weight vectors per batch query
	setupBoots   = 9   // fleets booted per run; setup_s is their median
	probeGrid    = 32  // probe lattice is probeGrid×probeGrid
	probesPerCls = 32  // answers per class that get the full probe check
	solverEps    = 1e-3
	churnLag     = 4 // inserted objects a type holds before its inserts are paired with deletes
)

// serveRound is the fixed operation sequence every client goroutine
// repeats: 21 single-vector queries, 2 batches, 2 writes (an insert and a
// delete, in turn per engine) and one fixed3 query — 26 operations, as in
// a planner round, so that the fixed3 share of a run does not depend on
// how the run splits between the phases.
var serveRound = []opClass{
	classQuery, classQuery, classQuery, classQuery, classQuery, classBatch,
	classQuery, classQuery, classQuery, classQuery, classQuery, classWrite,
	classQuery, classQuery, classQuery, classQuery, classQuery, classBatch,
	classQuery, classQuery, classQuery, classQuery, classQuery, classQuery, classWrite,
	classFixed3,
}

var searchSpace = [4]float64{dataset.DefaultBounds.Min.X, dataset.DefaultBounds.Min.Y,
	dataset.DefaultBounds.Max.X, dataset.DefaultBounds.Max.Y}

func oracleBounds() oracle.Bounds {
	return oracle.Bounds{MinX: searchSpace[0], MinY: searchSpace[1], MaxX: searchSpace[2], MaxY: searchSpace[3]}
}

// Answers whose cost was checked, and those among them whose claimed cost
// is not exactly (beyond rounding) the MWGD at their location, though
// within the stopping bound; see README.md.
var costChecked, costMismatched atomic.Int64

// checkCost applies the oracle's cost check and counts exact mismatches.
func checkCost(in *oracle.Instance, x, y, cost float64, w []float64) error {
	costChecked.Add(1)
	if math.Abs(in.CostGap(x, y, cost, w)) > oracle.CostTolerance {
		costMismatched.Add(1)
	}
	return in.CheckCost(x, y, cost, solverEps, w)
}

// write is one mutation the benchmark sent: the insert of a new object at
// (x, y), or the delete of object id. The mirror replays the log to know
// the data every answer was computed on.
type write struct {
	del   bool
	t, id int
	x, y  float64
}

// mirror is the benchmark's own model of one served engine's objects, kept
// in the engine's order (inserts append, deletes close the gap). Queries
// hold mu for reading and writes for writing, so the version a query saw
// is exactly known.
type mirror struct {
	name     string // engine name
	mu       sync.RWMutex
	version  int64
	ids      [][]int
	objs     [][]oracle.Object
	rng      *rand.Rand
	log      []write
	inserted int // inserts drawn so far; they take IDs from serveObjects+1
}

func newMirror(seed int64, region int) *mirror {
	seed = seed*1009 + int64(region)
	m := &mirror{name: fmt.Sprintf("region-%d", region), version: 1, rng: rand.New(rand.NewSource(seed ^ 0x5eed))}
	for _, name := range poiTypes {
		pts := dataset.Generate(dataset.Config{Seed: seed}, name, serveObjects)
		ids := make([]int, len(pts))
		objs := make([]oracle.Object, len(pts))
		for i, p := range pts {
			ids[i] = i
			objs[i] = oracle.Object{X: p.X, Y: p.Y, W: 1}
		}
		m.ids = append(m.ids, ids)
		m.objs = append(m.objs, objs)
	}
	return m
}

func (m *mirror) clone() *mirror {
	c := &mirror{name: m.name, version: m.version}
	for t := range m.ids {
		c.ids = append(c.ids, append([]int(nil), m.ids[t]...))
		c.objs = append(c.objs, append([]oracle.Object(nil), m.objs[t]...))
	}
	return c
}

// nextWrite draws the next write. Writes come in pairs on one type, the
// types in turn: the insert of an object at a uniform location, then the
// delete of the oldest object the benchmark inserted into that type — or,
// while the type holds no more than churnLag inserted objects, a second
// insert. Object counts grow by churnLag+1 or so per type and then stay
// steady. The prepared objects are never deleted: deleting them loses the
// optimum on some seeds (see README.md). Caller holds mu for writing.
func (m *mirror) nextWrite() write {
	k := len(m.log)
	t := k / 2 % len(m.ids)
	if k%2 == 1 {
		oldest, alive := -1, 0
		for _, id := range m.ids[t] {
			if id >= serveObjects {
				if alive == 0 {
					oldest = id
				}
				alive++
			}
		}
		if alive > churnLag {
			return write{del: true, t: t, id: oldest}
		}
	}
	m.inserted++
	return write{t: t, id: serveObjects + m.inserted,
		x: searchSpace[0] + m.rng.Float64()*(searchSpace[2]-searchSpace[0]),
		y: searchSpace[1] + m.rng.Float64()*(searchSpace[3]-searchSpace[1])}
}

// apply performs w on the mirror. Caller holds mu for writing (or owns an
// unshared clone).
func (m *mirror) apply(w write) {
	if w.del {
		i := slices.Index(m.ids[w.t], w.id)
		m.ids[w.t] = slices.Delete(m.ids[w.t], i, i+1)
		m.objs[w.t] = slices.Delete(m.objs[w.t], i, i+1)
	} else {
		m.ids[w.t] = append(m.ids[w.t], w.id)
		m.objs[w.t] = append(m.objs[w.t], oracle.Object{X: w.x, Y: w.y, W: 1})
	}
	m.version++
}

// ones weighs each of n types 1.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

func (m *mirror) instance() *oracle.Instance { return &oracle.Instance{Types: m.objs} }

func (m *mirror) counts() []int {
	out := make([]int, len(m.ids))
	for t := range m.ids {
		out[t] = len(m.ids[t])
	}
	return out
}

// engineRequest is the engine-creation body for the mirror's objects.
func (m *mirror) engineRequest() client.EngineRequest {
	b := searchSpace
	req := client.EngineRequest{Name: m.name, Method: "rrb", Bounds: &b}
	for t, name := range poiTypes {
		typ := client.Type{Name: name, Objects: make([]client.Object, len(m.objs[t]))}
		for i, o := range m.objs[t] {
			typ.Objects[i] = client.Object{X: o.X, Y: o.Y}
		}
		req.Types = append(req.Types, typ)
	}
	return req
}

// localEngine prepares, in this process, the engine a fresh molqd would
// build from the mirror's objects, with the same object identities.
func (m *mirror) localEngine() (*query.Engine, error) {
	types := make([]httpapi.TypeJSON, len(m.objs))
	for t := range m.objs {
		types[t].Objects = make([]httpapi.ObjectJSON, len(m.objs[t]))
		for i, o := range m.objs[t] {
			types[t].Objects[i] = httpapi.ObjectJSON{X: o.X, Y: o.Y}
		}
	}
	b := searchSpace
	in, err := httpapi.BuildInput(types, &b, 0)
	if err != nil {
		return nil, err
	}
	for t := range in.Sets {
		for i := range in.Sets[t] {
			in.Sets[t][i].ID = m.ids[t][i]
		}
	}
	// Keep the planner's diagram cache out of it.
	in.DisableDiagramCache = true
	return query.NewEngine(in, query.RRB)
}

// answer is one returned optimum, with the data version it was computed on.
type answer struct {
	class      opClass
	region     int
	version    int64
	w          []float64
	x, y, cost float64
}

// serveLayers gathers the figures the server returns per operation.
type serveLayers struct {
	overheadMs  []float64 // single query: client latency − server elapsed_us
	serverMs    []float64 // single query: server elapsed_us
	batchVecMs  []float64 // batch: server elapsed_us / vectors
	updateMs    []float64 // write: engine repair time
	writeRestMs []float64 // write: client latency − engine repair time
	dirtyCells  []float64
	incremental int
}

func (l *serveLayers) merge(o *serveLayers) {
	l.overheadMs = append(l.overheadMs, o.overheadMs...)
	l.serverMs = append(l.serverMs, o.serverMs...)
	l.batchVecMs = append(l.batchVecMs, o.batchVecMs...)
	l.updateMs = append(l.updateMs, o.updateMs...)
	l.writeRestMs = append(l.writeRestMs, o.writeRestMs...)
	l.dirtyCells = append(l.dirtyCells, o.dirtyCells...)
	l.incremental += o.incremental
}

// serveResult is everything one serving phase measured.
type serveResult struct {
	tally      tally
	layers     serveLayers
	elapsed    time.Duration
	setupS     []float64
	prepareMs  []float64
	peakRSSMB  float64
	front      map[string]float64 // /v1/metrics deltas of the front process
	replicas   map[string]float64 // summed deltas of the cluster replicas
	checkFails int                // failed whole-state checks after the load
	comboDrift int                // Σ |served − freshly prepared| candidate combinations after the load
}

func weights(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + 3*rng.Float64() // type weights uniform in [1, 4)
	}
	return w
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// runServe boots the workload's fleet setupBoots times (measuring set-up),
// drives the last one with the closed-loop read/write mix for dur, then
// checks every answer against the oracle.
func runServe(ctx context.Context, cfg runConfig, dur time.Duration) (*serveResult, error) {
	regions := make([]*mirror, serveRegions)
	initial := make([]*mirror, serveRegions)
	reqs := make([]client.EngineRequest, serveRegions, serveRegions+1)
	for r := range regions {
		regions[r] = newMirror(cfg.seed, r)
		initial[r] = regions[r].clone()
		reqs[r] = regions[r].engineRequest()
	}
	reqs = append(reqs, fixed3Request())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	res := &serveResult{}

	var f *fleet
	var first []client.SolveResponse
	for boot := 0; boot < setupBoots; boot++ {
		start := time.Now()
		nf, err := startFleet(cfg.molqd, cfg.workdir, cfg.cluster, boot)
		if err != nil {
			return nil, err
		}
		answers, prep, err := prepare(ctx, client.New(nf.front.addr, client.WithHTTPClient(hc)), reqs)
		if err == nil && first != nil {
			for r := range answers {
				if !sameAnswer(answers[r], first[r]) {
					err = fmt.Errorf("boot %d answered %+v on %s, boot 0 %+v", boot, answers[r], reqs[r].Name, first[r])
				}
			}
		}
		if err != nil {
			nf.stop()
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		first = answers
		res.setupS = append(res.setupS, time.Since(start).Seconds())
		res.prepareMs = append(res.prepareMs, prep...)
		if boot < setupBoots-1 {
			nf.stop()
			hc.CloseIdleConnections()
		} else {
			f = nf
		}
	}
	defer func() {
		if f != nil {
			f.stop()
		}
	}()

	before, err := scrape(ctx, f.front.addr)
	if err != nil {
		return nil, err
	}
	beforeRep, err := scrapeAll(ctx, f.replicas)
	if err != nil {
		return nil, err
	}

	c := client.New(f.front.addr, client.WithHTTPClient(hc))
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		answers []answer
	)
	start := time.Now()
	deadline := start.Add(dur)
	for g := 0; g < serveGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var t tally
			var l serveLayers
			var as []answer
			rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(g)))
			// Each goroutine walks the regions in turn, one operation each,
			// starting at its own offset.
			next := g
			for time.Now().Before(deadline) {
				for _, op := range serveRound {
					as = serveOp(ctx, c, regions[next%serveRegions], next%serveRegions, rng, op, &t, &l, as)
					next++
				}
			}
			mu.Lock()
			res.tally.merge(&t)
			res.layers.merge(&l)
			answers = append(answers, as...)
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	res.elapsed = time.Since(start)

	after, err := scrape(ctx, f.front.addr)
	if err != nil {
		return nil, err
	}
	afterRep, err := scrapeAll(ctx, f.replicas)
	if err != nil {
		return nil, err
	}
	logf("%s set-up times (s): %.3f", cfg.workload, res.setupS)
	res.front = delta(before, after)
	res.replicas = delta(beforeRep, afterRep)

	for _, m := range regions {
		fails, drift := finalChecks(ctx, c, m)
		res.checkFails += fails
		res.comboDrift += drift
	}
	res.peakRSSMB = f.stop()
	f = nil
	verifyAnswers(initial, regions, answers, &res.tally)
	return res, nil
}

// prepare creates every region's engine, then asks each one query: set-up
// ends when every engine can serve. It returns those first answers and the
// engines' preparation times (ms).
func prepare(ctx context.Context, c *client.Client, reqs []client.EngineRequest) ([]client.SolveResponse, []float64, error) {
	var prep []float64
	for _, req := range reqs {
		info, err := c.CreateEngine(ctx, req)
		if err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", req.Name, err)
		}
		prep = append(prep, float64(info.PrepMicros)/1000)
	}
	answers := make([]client.SolveResponse, len(reqs))
	for r, req := range reqs {
		a, err := c.Query(ctx, req.Name, ones(len(req.Types)))
		if err != nil {
			return nil, nil, fmt.Errorf("first query on %s: %w", req.Name, err)
		}
		answers[r] = a
	}
	return answers, prep, nil
}

func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func sameAnswer(a, b client.SolveResponse) bool {
	return a.Location == b.Location && a.Cost == b.Cost
}

// serveOp issues one operation of the mix and records its latency, the
// figures the server returned, and the answers to check later.
func serveOp(ctx context.Context, c *client.Client, m *mirror, region int, rng *rand.Rand, op opClass, t *tally, l *serveLayers, as []answer) []answer {
	switch op {
	case classFixed3:
		start := time.Now()
		r, err := c.Query(ctx, fixed3Engine, fixed3Weights)
		t.done(op, ms(time.Since(start)), err)
		if err == nil {
			if err := checkFixed3(r.Location.X, r.Location.Y, r.Cost); err != nil {
				t.wrong(op, fmt.Errorf("served: %w", err))
			}
		}
	case classQuery:
		w := weights(rng, len(poiTypes))
		m.mu.RLock()
		v := m.version
		start := time.Now()
		r, err := c.Query(ctx, m.name, w)
		lat := time.Since(start)
		m.mu.RUnlock()
		t.done(op, ms(lat), err)
		if err == nil {
			server := float64(r.Micros) / 1000
			l.serverMs = append(l.serverMs, server)
			l.overheadMs = append(l.overheadMs, ms(lat)-server)
			as = append(as, answer{op, region, v, w, r.Location.X, r.Location.Y, r.Cost})
		}
	case classBatch:
		vecs := make([][]float64, batchVectors)
		for i := range vecs {
			vecs[i] = weights(rng, len(poiTypes))
		}
		m.mu.RLock()
		v := m.version
		start := time.Now()
		r, err := c.QueryBatch(ctx, m.name, vecs)
		lat := time.Since(start)
		m.mu.RUnlock()
		if err == nil && len(r.Results) != len(vecs) {
			err = fmt.Errorf("batch of %d answered %d", len(vecs), len(r.Results))
		}
		t.done(op, ms(lat), err)
		if err == nil {
			l.batchVecMs = append(l.batchVecMs, float64(r.Micros)/1000/float64(len(vecs)))
			for i, a := range r.Results {
				as = append(as, answer{op, region, v, vecs[i], a.Location.X, a.Location.Y, a.Cost})
			}
		}
	case classWrite:
		m.mu.Lock()
		wr := m.nextWrite()
		var u client.Update
		var err error
		start := time.Now()
		if wr.del {
			u, err = c.DeleteObject(ctx, m.name, wr.t, wr.id)
		} else {
			u, err = c.InsertObject(ctx, m.name, client.ObjectUpsert{Type: wr.t, ID: wr.id, X: wr.x, Y: wr.y})
		}
		lat := time.Since(start)
		if err == nil {
			// The mirror follows what the server acknowledged; a version the
			// mirror does not predict is a wrong answer.
			m.apply(wr)
			m.log = append(m.log, wr)
			if u.Version != m.version {
				err = fmt.Errorf("write acknowledged version %d, mirror at %d", u.Version, m.version)
			}
		}
		m.mu.Unlock()
		t.done(op, ms(lat), err)
		if err == nil {
			repair := float64(u.Micros) / 1000
			l.updateMs = append(l.updateMs, repair)
			l.writeRestMs = append(l.writeRestMs, ms(lat)-repair)
			l.dirtyCells = append(l.dirtyCells, float64(u.DirtyCells))
			if u.Incremental {
				l.incremental++
			}
		}
	}
	return as
}

// finalChecks runs after the load, with no other traffic: the server's
// object counts and version match the mirror; a batch answers exactly what
// the same vectors answer one by one; those answers are bit-equal to an
// engine prepared in this process from the mirror and pass the oracle. It
// returns the number of failed checks, and by how many candidate
// combinations the served engine differs from the freshly prepared one.
// That difference is reported, not failed: the delete splice loses
// combinations on some seeds and not others, and a lost combination makes
// an answer wrong only when it holds the optimum, which the answer checks
// catch.
func finalChecks(ctx context.Context, c *client.Client, m *mirror) (fails, drift int) {
	fail := func(format string, args ...any) {
		fails++
		logf("final check failed on "+m.name+": "+format, args...)
	}
	local, err := m.localEngine()
	if err != nil {
		fail("local engine: %v", err)
		return fails, 0
	}
	info, err := c.Engine(ctx, m.name)
	if err == nil {
		drift = info.Combinations - local.Combinations()
		if drift < 0 {
			drift = -drift
		}
	}
	switch {
	case err != nil:
		fail("engine info: %v", err)
	case info.Version != m.version:
		fail("server at version %d, mirror at %d", info.Version, m.version)
	case fmt.Sprint(info.Objects) != fmt.Sprint(m.counts()):
		fail("server object counts %v, mirror %v", info.Objects, m.counts())
	}
	rng := rand.New(rand.NewSource(int64(len(m.log)) + 99))
	vecs := make([][]float64, batchVectors)
	for i := range vecs {
		vecs[i] = weights(rng, len(poiTypes))
	}
	batch, err := c.QueryBatch(ctx, m.name, vecs)
	if err != nil || len(batch.Results) != len(vecs) {
		fail("final batch: %v (%d results)", err, len(batch.Results))
		return fails, drift
	}
	inst := m.instance()
	for i, w := range vecs {
		one, err := c.Query(ctx, m.name, w)
		if err != nil {
			fail("final query %d: %v", i, err)
			continue
		}
		if !sameAnswer(one, batch.Results[i]) {
			fail("vector %d: batch answer %+v, single %+v", i, batch.Results[i].Location, one.Location)
		}
		lr, err := local.Query(w)
		if err != nil {
			fail("local query %d: %v", i, err)
		} else if lr.Loc.X != one.Location.X || lr.Loc.Y != one.Location.Y || lr.Cost != one.Cost {
			fail("vector %d: served (%v, %v) cost %v, local engine (%v, %v) cost %v",
				i, one.Location.X, one.Location.Y, one.Cost, lr.Loc.X, lr.Loc.Y, lr.Cost)
		}
		if err := checkCost(inst, one.Location.X, one.Location.Y, one.Cost, w); err != nil {
			fail("vector %d: %v", i, err)
		}
		if err := inst.CheckProbes(oracleBounds(), probeGrid, one.Cost, solverEps, w); err != nil {
			fail("vector %d: %v", i, err)
		}
	}
	return fails, drift
}

// verifyAnswers replays each region's write log from its initial objects
// and checks every recorded answer against the oracle on the data version
// it was computed on: the claimed cost is the brute-force MWGD at the
// claimed location for every answer, and an evenly spread sample of
// probesPerCls answers per class also passes the probe check.
func verifyAnswers(initial, final []*mirror, answers []answer, t *tally) {
	probe := make([]bool, len(answers))
	var perClass [numClasses][]int
	for i, a := range answers {
		perClass[a.class] = append(perClass[a.class], i)
	}
	for _, idx := range perClass {
		stride := max(1, len(idx)/probesPerCls)
		for k := 0; k < len(idx) && k/stride < probesPerCls; k += stride {
			probe[idx[k]] = true
		}
	}
	order := make([]int, len(answers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := &answers[order[i]], &answers[order[j]]
		return a.region < b.region || a.region == b.region && a.version < b.version
	})
	var state *mirror
	next := 0
	for _, i := range order {
		a := answers[i]
		if state == nil || state.name != initial[a.region].name {
			state, next = initial[a.region].clone(), 0
		}
		log := final[a.region].log
		for state.version < a.version && next < len(log) {
			state.apply(log[next])
			next++
		}
		inst := state.instance()
		err := checkCost(inst, a.x, a.y, a.cost, a.w)
		if err == nil && probe[i] {
			err = inst.CheckProbes(oracleBounds(), probeGrid, a.cost, solverEps, a.w)
		}
		if err == nil && state.version != a.version {
			err = fmt.Errorf("answer at version %d, write log ends at %d", a.version, state.version)
		}
		if err != nil {
			t.wrong(a.class, fmt.Errorf("%s: %w", state.name, err))
		}
	}
}

// serveMetrics derives the serving phase's end-to-end metrics.
func (r *serveResult) endToEnd(out metrics) {
	q, b := &r.tally[classQuery], &r.tally[classBatch]
	out.set("setup_s", median(r.setupS), "s")
	out.set("peak_rss_mb", r.peakRSSMB, "MB")
	out.set("query_p50_ms", percentile(q.lat, 0.5), "ms")
	out.set("batch_p50_ms", percentile(b.lat, 0.5), "ms")
}

// perLayer derives the serving phase's per-layer metrics. Figures of a
// layer the workload does not reach read 0.
func (r *serveResult) perLayer(out metrics, cluster bool) {
	l := &r.layers
	q, b, w := &r.tally[classQuery], &r.tally[classBatch], &r.tally[classWrite]
	writes := float64(len(w.lat))
	queries := float64(len(q.lat) + len(b.lat))
	ops := queries + writes
	// reached reports v on the tier whose layer produced it, 0 on the other.
	reached := func(on bool, v float64) float64 {
		if !on {
			return 0
		}
		return v
	}
	// Tails are per-layer figures (see plannerResult.perLayer); a serving
	// request's p90 is set mostly by how long an idle vCPU takes to be
	// scheduled again.
	out.set("query_p90_ms", tail(q.lat), "ms")
	// A cluster write waits behind the router's heartbeat resyncs, whose
	// number follows the host's load, and queries wait behind the write:
	// on cluster-rw the ten-seed IQR/median of the write median reached
	// 0.31 and that of the throughput 0.28, beyond any bound.
	out.set("write_p50_ms", percentile(w.lat, 0.5), "ms")
	out.set("ops_per_s", ops/r.elapsed.Seconds(), "1/s")
	out.set("write_p90_ms", tail(w.lat), "ms")
	out.set("query.prepare_ms", median(r.prepareMs), "ms")
	out.set("httpapi.overhead_ms", reached(!cluster, median(l.overheadMs)), "ms")
	out.set("query.engine_ms", reached(!cluster, median(l.serverMs)), "ms")
	out.set("query.batch_ms_per_vector", reached(!cluster, median(l.batchVecMs)), "ms")
	out.set("query.update_ms", median(l.updateMs), "ms")
	out.set("query.dirty_cells", mean(l.dirtyCells), "count")
	out.set("query.incremental_ratio", ratio(float64(l.incremental), writes), "ratio")
	out.set("query.combination_drift", float64(r.comboDrift), "count")
	out.set("cluster.router_ms", reached(cluster, median(l.overheadMs)), "ms")
	out.set("cluster.hop_ms", reached(cluster, median(l.serverMs)), "ms")
	out.set("cluster.shard_queries_per_query", ratio(r.front["molq_cluster_route_total"], queries), "count")
	out.set("cluster.update_ms", reached(cluster, median(l.writeRestMs)), "ms")
	out.set("cluster.deltas_per_write", ratio(r.replicas["molq_cluster_shard_deltas_total"], writes), "count")
	out.set("cluster.snapshots_per_write", ratio(r.front["molq_cluster_snapshots_shipped_total"], writes), "count")
	out.set("cluster.stale_refetches", r.front["molq_cluster_stale_refetch_total"], "count")
	out.set("cluster.failovers", r.front["molq_cluster_failovers_total"], "count")
	gc := r.front["go_gc_cycles_total"] + r.replicas["go_gc_cycles_total"]
	out.set("runtime.server_gc_per_op", ratio(gc, ops), "count")
}

// tail is the p90 of a class. With fewer than 100 samples a p90 rests on
// fewer than ten values beyond it; it is still reported (the metric must be
// present) but flagged.
func tail(xs []float64) float64 {
	if len(xs) < 100 {
		logf("warning: p90 over %d samples (fewer than 100)", len(xs))
	}
	return percentile(xs, 0.9)
}
