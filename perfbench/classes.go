package main

import (
	"errors"
	"fmt"
	"os"

	"molq/client"
)

// opClass is one kind of operation. Latencies are kept per class, never
// pooled: the classes differ in cost by an order of magnitude.
type opClass int

const (
	classCold opClass = iota
	classWarm
	classReweight
	classWeighted
	classQuery
	classBatch
	classWrite
	classFixed3
	numClasses
)

var classNames = [numClasses]string{"cold", "warm", "reweight", "weighted", "query", "batch", "write", "fixed3"}

func (c opClass) String() string { return classNames[c] }

// classStats counts one class's operations and keeps their latencies (ms).
type classStats struct {
	attempted, failed, shed int
	lat                     []float64
}

// tally is a per-class ledger; each client goroutine owns one and they are
// merged after the load.
type tally [numClasses]classStats

// done records one completed operation. A shed (HTTP 429) or any other
// error counts as failed and contributes no latency.
func (t *tally) done(c opClass, ms float64, err error) {
	s := &t[c]
	s.attempted++
	if err == nil {
		s.lat = append(s.lat, ms)
		return
	}
	s.failed++
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status == 429 {
		s.shed++
	}
	// Only the first few errors of a class are printed: a broken server
	// fails every operation.
	if s.failed <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", c, err)
	}
}

// wrong records that an answer already counted as completed failed a
// correctness check: it moves from completed to failed.
func (t *tally) wrong(c opClass, err error) {
	t[c].failed++
	if t[c].failed <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: %s answer wrong: %v\n", c, err)
	}
}

func (t *tally) merge(o *tally) {
	for c := range t {
		t[c].attempted += o[c].attempted
		t[c].failed += o[c].failed
		t[c].shed += o[c].shed
		t[c].lat = append(t[c].lat, o[c].lat...)
	}
}

func (t *tally) totals() (attempted, failed int) {
	for c := range t {
		attempted += t[c].attempted
		failed += t[c].failed
	}
	return attempted, failed
}

// print writes the per-class ledger to stderr.
func (t *tally) print() {
	fmt.Fprintf(os.Stderr, "%-9s %9s %7s %5s %9s %9s\n", "class", "attempted", "failed", "shed", "p50_ms", "p90_ms")
	for c := range t {
		s := &t[c]
		if s.attempted == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "%-9s %9d %7d %5d %9.3f %9.3f\n", opClass(c), s.attempted, s.failed, s.shed,
			percentile(s.lat, 0.5), percentile(s.lat, 0.9))
	}
}
