package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSpread re-runs this command k times with seeds seed … seed+k-1 (one
// process each, as a separate run of this command, with every other flag
// passed through) and prints, per metric, the median, the quartiles and the
// interquartile range as a share of the median — the figures the
// BENCHMARK.json bounds are derived from.
func runSpread(k int, seed int64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	skip := false
	for _, a := range os.Args[1:] {
		switch {
		case skip:
			skip = false
		case a == "-spread" || a == "--spread" || a == "-seed" || a == "--seed":
			skip = true
		case len(a) > 8 && (a[:8] == "-spread=" || a[:9] == "--spread=") ||
			len(a) > 6 && (a[:6] == "-seed=" || a[:7] == "--seed="):
		default:
			args = append(args, a)
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	failedShares := []string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, append(args, "-seed", strconv.FormatInt(s, 10))...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		failedShares = append(failedShares, fmt.Sprintf("%d/%d", r.Failed, r.Attempted))
		if !r.Correct {
			logf("seed %d: incorrect (%d of %d failed)", s, r.Failed, r.Attempted)
		}
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "%-36s %-6s %12s %12s %12s %8s\n", "metric", "unit", "median", "q1", "q3", "iqr/med")
	for _, n := range names {
		xs := values[n]
		if len(xs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-36s %-6s %12.4f %12.4f %12.4f %8.4f\n", n, units[n], q2, q1, q3, ratio(q3-q1, q2))
	}
	fmt.Fprintf(w, "failed/attempted per run: %v\n", failedShares)
	return w.Flush()
}
